package coop

import (
	"math"
	"testing"
)

func TestDecayZeroLambdaMatchesHistory(t *testing.T) {
	plain := NewHistory(4, 0.5, 0.5)
	dec := NewDecayHistory(4, 0.5, 0.5, 0)
	ratings := []struct {
		i, k int
		s    float64
	}{{0, 1, 1.0}, {0, 1, 0.4}, {2, 3, 0.8}}
	for ti, r := range ratings {
		plain.Record(r.i, r.k, r.s)
		if err := dec.Advance(float64(ti)); err != nil {
			t.Fatal(err)
		}
		dec.Record(r.i, r.k, r.s)
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {1, 2}} {
		p := plain.Quality(pair[0], pair[1])
		d := dec.Quality(pair[0], pair[1])
		if math.Abs(p-d) > 1e-12 {
			t.Errorf("pair %v: plain %v, decay(λ=0) %v", pair, p, d)
		}
	}
}

func TestDecayFavoursRecentRatings(t *testing.T) {
	h := NewDecayHistory(2, 0, 0.5, 1.0) // alpha=0: pure history
	h.Record(0, 1, 0.2)                  // old, bad
	if err := h.Advance(5); err != nil {
		t.Fatal(err)
	}
	h.Record(0, 1, 1.0) // fresh, great
	q := h.Quality(0, 1)
	// Weights: old exp(-5)≈0.0067, new 1.0 → estimate ≈ 0.995.
	if q < 0.95 {
		t.Errorf("quality %v should be dominated by the recent rating", q)
	}
	// An undecayed History would answer the flat mean 0.6.
	plain := NewHistory(2, 0, 0.5)
	plain.Record(0, 1, 0.2)
	plain.Record(0, 1, 1.0)
	if math.Abs(plain.Quality(0, 1)-0.6) > 1e-12 {
		t.Fatalf("plain history mean wrong: %v", plain.Quality(0, 1))
	}
}

func TestDecayPrior(t *testing.T) {
	h := NewDecayHistory(3, 0.5, 0.4, 0.5)
	// No records: q = α·ω + (1−α)·ω = ω.
	if got := h.Quality(0, 1); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("prior = %v, want 0.4", got)
	}
	if h.Quality(1, 1) != 0 {
		t.Error("diagonal nonzero")
	}
}

func TestDecayClockMonotone(t *testing.T) {
	h := NewDecayHistory(2, 0.5, 0.5, 1)
	if err := h.Advance(3); err != nil {
		t.Fatal(err)
	}
	if h.Now() != 3 {
		t.Errorf("Now = %v", h.Now())
	}
	if err := h.Advance(2); err == nil {
		t.Error("backwards clock accepted")
	}
}

func TestDecayCompact(t *testing.T) {
	h := NewDecayHistory(2, 0, 0.5, 1.0)
	h.Record(0, 1, 0.2)
	if err := h.Advance(50); err != nil {
		t.Fatal(err)
	}
	h.Record(0, 1, 0.9)
	if removed := h.Compact(1e-6); removed != 1 {
		t.Fatalf("Compact removed %d records, want 1 (the 50-units-old one)", removed)
	}
	// The estimate must be unchanged to numerical precision: the removed
	// record's weight was exp(-50).
	if q := h.Quality(0, 1); math.Abs(q-0.9) > 1e-6 {
		t.Errorf("quality after compaction = %v, want ~0.9", q)
	}
	// λ=0 compaction is a no-op.
	h0 := NewDecayHistory(2, 0, 0.5, 0)
	h0.Record(0, 1, 0.3)
	if h0.Compact(0.5) != 0 {
		t.Error("λ=0 compaction removed records")
	}
}

func TestDecayGrowAndGroup(t *testing.T) {
	h := NewDecayHistory(0, 0.5, 0.5, 0.1)
	h.Grow(5)
	if h.NumWorkers() != 5 {
		t.Errorf("NumWorkers = %d", h.NumWorkers())
	}
	h.RecordGroup([]int{0, 1, 2}, 0.9)
	if h.Quality(0, 2) <= 0.5 {
		t.Error("group rating not recorded")
	}
}

func TestDecayPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad alpha":  func() { NewDecayHistory(2, 2, 0.5, 0) },
		"bad lambda": func() { NewDecayHistory(2, 0.5, 0.5, -1) },
		"self":       func() { NewDecayHistory(2, 0.5, 0.5, 0).Record(0, 0, 0.5) },
		"bad score":  func() { NewDecayHistory(2, 0.5, 0.5, 0).Record(0, 1, 7) },
		"NaN score":  func() { NewDecayHistory(2, 0.5, 0.5, 0).Record(0, 1, math.NaN()) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}
