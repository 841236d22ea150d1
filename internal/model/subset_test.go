package model

import (
	"testing"

	"casc/internal/coop"
)

func TestSubset(t *testing.T) {
	m := coop.NewMatrix(5)
	m.Set(1, 3, 0.7)
	m.Set(3, 4, 0.2)
	s := NewSubset(m, []int{3, 1, 4})
	if s.NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d", s.NumWorkers())
	}
	if got := s.Quality(0, 1); got != 0.7 { // global (3,1)
		t.Errorf("Quality(0,1) = %v, want 0.7", got)
	}
	if got := s.Quality(0, 2); got != 0.2 { // global (3,4)
		t.Errorf("Quality(0,2) = %v, want 0.2", got)
	}
	if got := s.Quality(1, 2); got != 0 { // global (1,4): unset
		t.Errorf("Quality(1,2) = %v, want 0", got)
	}
	if got := s.Quality(2, 2); got != 0 {
		t.Errorf("diagonal = %v", got)
	}
}

func TestSubsetPanicsOnBadID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSubset(coop.NewMatrix(2), []int{0, 5})
}
