package coop

import (
	"testing"
)

// countingModel counts base evaluations.
type countingModel struct {
	base  Model
	calls int
}

func (c *countingModel) Quality(i, k int) float64 {
	c.calls++
	return c.base.Quality(i, k)
}
func (c *countingModel) NumWorkers() int { return c.base.NumWorkers() }

func TestCachedTransparent(t *testing.T) {
	base := Synthetic{N: 50, Seed: 3}
	c := NewCached(base)
	for i := 0; i < 50; i++ {
		for k := 0; k < 50; k++ {
			if got, want := c.Quality(i, k), base.Quality(i, k); got != want {
				t.Fatalf("Quality(%d,%d) = %v, want %v", i, k, got, want)
			}
		}
	}
	if c.NumWorkers() != 50 {
		t.Error("NumWorkers not forwarded")
	}
	if c.Unwrap() != Model(base) {
		t.Error("Unwrap lost base")
	}
}

func TestCachedMemoizes(t *testing.T) {
	counter := &countingModel{base: Synthetic{N: 10, Seed: 1}}
	c := NewCached(counter)
	for rep := 0; rep < 100; rep++ {
		c.Quality(3, 7)
		c.Quality(7, 3) // same unordered pair
	}
	if counter.calls != 1 {
		t.Errorf("base evaluated %d times, want 1", counter.calls)
	}
	if len(c.memo) != 1 {
		t.Errorf("memo holds %d pairs, want 1", len(c.memo))
	}
	c.Quality(1, 2)
	if len(c.memo) != 2 {
		t.Errorf("memo holds %d pairs, want 2", len(c.memo))
	}
	// Diagonal never touches the base.
	before := counter.calls
	if c.Quality(4, 4) != 0 {
		t.Error("diagonal nonzero")
	}
	if counter.calls != before {
		t.Error("diagonal evaluated the base")
	}
}
