package coop

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 0.8)
	m.Set(1, 2, 0.3)
	if got := m.Quality(0, 1); got != 0.8 {
		t.Errorf("Quality(0,1) = %v", got)
	}
	if got := m.Quality(1, 0); got != 0.8 {
		t.Errorf("asymmetric: Quality(1,0) = %v", got)
	}
	if got := m.Quality(0, 2); got != 0 {
		t.Errorf("unset pair = %v, want 0", got)
	}
	if got := m.Quality(1, 1); got != 0 {
		t.Errorf("diagonal = %v, want 0", got)
	}
	if m.NumWorkers() != 3 {
		t.Errorf("NumWorkers = %d", m.NumWorkers())
	}
}

func TestMatrixPanics(t *testing.T) {
	m := NewMatrix(2)
	for name, f := range map[string]func(){
		"self":     func() { m.Set(1, 1, 0.5) },
		"negative": func() { m.Set(0, 1, -0.1) },
		"above 1":  func() { m.Set(0, 1, 1.1) },
		"nan":      func() { m.Set(0, 1, math.NaN()) },
		"neg size": func() { NewMatrix(-1) },
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

func TestFunc(t *testing.T) {
	f := Func{N: 5, F: func(i, k int) float64 { return 0.5 }}
	if f.Quality(2, 2) != 0 {
		t.Error("diagonal not zeroed")
	}
	if f.Quality(1, 2) != 0.5 {
		t.Error("function not forwarded")
	}
	if f.NumWorkers() != 5 {
		t.Error("NumWorkers wrong")
	}
}

func TestSyntheticProperties(t *testing.T) {
	s := Synthetic{N: 100, Seed: 7}
	symmetricBounded := func(i, k uint8) bool {
		a, b := int(i)%100, int(k)%100
		q := s.Quality(a, b)
		if a == b {
			return q == 0
		}
		return q >= 0 && q <= 1 && q == s.Quality(b, a)
	}
	if err := quick.Check(symmetricBounded, nil); err != nil {
		t.Error(err)
	}
	// Deterministic per seed, distinct across seeds.
	s2 := Synthetic{N: 100, Seed: 7}
	s3 := Synthetic{N: 100, Seed: 8}
	if s.Quality(3, 9) != s2.Quality(3, 9) {
		t.Error("same seed differs")
	}
	diff := false
	for i := 0; i < 20 && !diff; i++ {
		if s.Quality(i, i+1) != s3.Quality(i, i+1) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical qualities")
	}
}

func TestSyntheticRoughlyUniform(t *testing.T) {
	s := Synthetic{N: 1000, Seed: 1}
	var sum float64
	n := 0
	for i := 0; i < 200; i++ {
		for k := i + 1; k < 200; k++ {
			sum += s.Quality(i, k)
			n++
		}
	}
	mean := sum / float64(n)
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("mean quality %v, want ~0.5 for uniform hash", mean)
	}
}

func TestHistoryEquation1(t *testing.T) {
	h := NewHistory(4, 0.5, 0.5)
	// No shared history: prior only => alpha*omega + (1-alpha)*omega = omega.
	if got := h.Quality(0, 1); got != 0.5 {
		t.Errorf("prior quality = %v, want 0.5", got)
	}
	// Record two tasks with ratings 1.0 and 0.6: mean 0.8.
	h.Record(0, 1, 1.0)
	h.Record(1, 0, 0.6) // order must not matter
	want := 0.5*0.5 + 0.5*0.8
	if got := h.Quality(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Quality = %v, want %v (Equation 1)", got, want)
	}
	if got := h.Quality(1, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("asymmetric result: %v", got)
	}
	if h.SharedTasks(0, 1) != 2 {
		t.Errorf("SharedTasks = %d, want 2", h.SharedTasks(0, 1))
	}
	if h.SharedTasks(2, 3) != 0 {
		t.Errorf("SharedTasks of fresh pair = %d", h.SharedTasks(2, 3))
	}
}

func TestHistoryAlphaExtremes(t *testing.T) {
	// alpha = 1: pure prior regardless of history.
	h := NewHistory(2, 1, 0.3)
	h.Record(0, 1, 1.0)
	if got := h.Quality(0, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("alpha=1 quality = %v, want 0.3", got)
	}
	// alpha = 0: pure history.
	h0 := NewHistory(2, 0, 0.3)
	h0.Record(0, 1, 0.9)
	if got := h0.Quality(0, 1); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("alpha=0 quality = %v, want 0.9", got)
	}
}

func TestHistoryRecordGroup(t *testing.T) {
	h := NewHistory(4, 0.5, 0.5)
	h.RecordGroup([]int{0, 1, 2}, 0.9)
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if h.SharedTasks(pair[0], pair[1]) != 1 {
			t.Errorf("pair %v missing group record", pair)
		}
	}
	if h.SharedTasks(0, 3) != 0 {
		t.Error("non-member got a record")
	}
}

func TestHistoryBoundsProperty(t *testing.T) {
	f := func(ratings []float64) bool {
		h := NewHistory(2, 0.5, 0.5)
		for _, r := range ratings {
			r = math.Abs(math.Mod(r, 1))
			h.Record(0, 1, r)
		}
		q := h.Quality(0, 1)
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistoryConcurrent(t *testing.T) {
	h := NewHistory(10, 0.5, 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Record(g, 9, 0.5)
				_ = h.Quality(g, 9)
			}
		}(g)
	}
	wg.Wait()
	if h.SharedTasks(0, 9) != 200 {
		t.Errorf("SharedTasks = %d, want 200", h.SharedTasks(0, 9))
	}
}

func TestHistoryPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad alpha": func() { NewHistory(2, -0.1, 0.5) },
		"bad omega": func() { NewHistory(2, 0.5, 1.5) },
		"self":      func() { NewHistory(2, 0.5, 0.5).Record(1, 1, 0.5) },
		"bad score": func() { NewHistory(2, 0.5, 0.5).Record(0, 1, 2) },
		"NaN score": func() { NewHistory(2, 0.5, 0.5).Record(0, 1, math.NaN()) },
		"negative":  func() { NewHistory(2, 0.5, 0.5).Record(-1, 1, 0.5) },
		"over 32 b": func() { NewHistory(2, 0.5, 0.5).Record(0, 1<<32, 0.5) },
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

func TestJaccardPaperFormula(t *testing.T) {
	// Workers: 0 in groups {1,2,3}, 1 in groups {2,3,4}, 2 in no groups.
	j := NewJaccard([][]int{{1, 2, 3}, {2, 3, 4}, {}})
	// c=2 (groups 2,3), C=4 (groups 1..4): q = 0.25 + 0.5*2/4 = 0.5.
	if got := j.Quality(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Quality(0,1) = %v, want 0.5", got)
	}
	// No groups at all: q = 0.25 + 0 = 0.25 (the base term only).
	if got := j.Quality(0, 2); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Quality(0,2) = %v, want 0.25", got)
	}
	if j.Quality(1, 1) != 0 {
		t.Error("diagonal not zero")
	}
	if j.NumWorkers() != 3 {
		t.Error("NumWorkers wrong")
	}
}

func TestJaccardIdenticalGroups(t *testing.T) {
	j := NewJaccard([][]int{{5, 9}, {5, 9}})
	// Full overlap: q = 0.25 + 0.5*1 = 0.75, the maximum under this model.
	if got := j.Quality(0, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Quality = %v, want 0.75", got)
	}
}

func TestJaccardSymmetricProperty(t *testing.T) {
	groups := [][]int{{1, 3, 5}, {2, 3}, {1, 2, 3, 4, 5, 6}, {}, {7}}
	j := NewJaccard(groups)
	for i := range groups {
		for k := range groups {
			a, b := j.Quality(i, k), j.Quality(k, i)
			if a != b {
				t.Fatalf("asymmetric at (%d,%d): %v vs %v", i, k, a, b)
			}
			if a < 0 || a > 1 {
				t.Fatalf("out of range at (%d,%d): %v", i, k, a)
			}
		}
	}
}

func TestJaccardValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted group list should panic")
		}
	}()
	NewJaccard([][]int{{3, 1}})
}

func TestHistoryExportImportRoundTrip(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(5))
	h := NewHistory(n, 0.5, 0.5)
	for r := 0; r < 500; r++ {
		i, k := rng.Intn(n), rng.Intn(n-1)
		if k >= i {
			k++
		}
		h.Record(i, k, rng.Float64())
	}
	recs := h.Export()
	for j := 1; j < len(recs); j++ {
		a, b := recs[j-1], recs[j]
		if a.I > b.I || a.I == b.I && a.K >= b.K {
			t.Fatalf("records %d and %d out of (I, K) order: %+v, %+v", j-1, j, a, b)
		}
	}
	for _, r := range recs {
		if r.I >= r.K {
			t.Fatalf("record %+v not stored as (lo, hi)", r)
		}
	}
	fresh := NewHistory(0, 0.5, 0.5)
	if err := fresh.Import(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.NumWorkers(), recs[len(recs)-1].K+1; got < want || got > n {
		t.Errorf("import grew to %d workers, want %d..%d", got, want, n)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if a, b := h.Quality(i, k), fresh.Quality(i, k); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("pair (%d,%d): %v vs %v", i, k, a, b)
			}
		}
	}
	// The re-imported history holds the same records, sums to the bit.
	again := fresh.Export()
	if len(again) != len(recs) {
		t.Fatalf("re-export has %d records, want %d", len(again), len(recs))
	}
	for j, r := range recs {
		g := again[j]
		if g.I != r.I || g.K != r.K || g.Count != r.Count || math.Float64bits(g.Sum) != math.Float64bits(r.Sum) {
			t.Fatalf("record %d: re-exported %+v, want %+v", j, g, r)
		}
	}
}

func TestHistoryImportRejectsGarbage(t *testing.T) {
	h := NewHistory(2, 0.5, 0.5)
	cases := map[string]PairRecord{
		"self pair": {I: 1, K: 1, Count: 1, Sum: 0.5},
		"negative":  {I: -1, K: 0, Count: 1, Sum: 0.5},
		"sum>count": {I: 0, K: 1, Count: 1, Sum: 1.5},
		"neg count": {I: 0, K: 1, Count: -1, Sum: 0},
		"NaN sum":   {I: 0, K: 1, Count: 1, Sum: math.NaN()},
		"I ≥ 2^32":  {I: 1 << 32, K: 1, Count: 1, Sum: 0.5},
		"K ≥ 2^32":  {I: 0, K: 1<<32 + 1, Count: 1, Sum: 0.5},
	}
	for name, rec := range cases {
		// A bad record anywhere rejects the whole batch.
		if err := h.Import([]PairRecord{{I: 0, K: 1, Count: 1, Sum: 0.5}, rec}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if len(h.Export()) != 0 || h.NumWorkers() != 2 {
		t.Errorf("rejected imports changed the history: %+v, %d workers", h.Export(), h.NumWorkers())
	}
}
