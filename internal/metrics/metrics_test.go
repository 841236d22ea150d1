package metrics

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "ignored"); again != c {
		t.Fatal("second Counter call returned a different instance")
	}

	g := r.Gauge("pool_size", "Current pool size.")
	g.Set(10)
	g.Add(-3.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}
}

func TestLabeledChildrenAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("solves_total", "", L("solver", "TPG"))
	b := r.Counter("solves_total", "", L("solver", "GT"))
	if a == b {
		t.Fatal("different labels returned the same child")
	}
	a.Inc()
	a.Inc()
	b.Inc()
	snap := r.Snapshot()
	if v, ok := snap.Counter("solves_total", L("solver", "TPG")); !ok || v != 2 {
		t.Fatalf("TPG child = %d (found %v), want 2", v, ok)
	}
	if v, ok := snap.Counter("solves_total", L("solver", "GT")); !ok || v != 1 {
		t.Fatalf("GT child = %d (found %v), want 1", v, ok)
	}
	// Label order must not matter.
	x := r.Counter("multi", "", L("a", "1"), L("b", "2"))
	y := r.Counter("multi", "", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order produced distinct children")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering thing as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("thing", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-102.65) > 1e-9 {
		t.Fatalf("sum = %v, want 102.65", got)
	}
	hs, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Cumulative: v<=0.1 → 2 (0.05 and the boundary 0.1), v<=1 → 3, v<=10 → 4.
	want := []uint64{2, 3, 4}
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket le=%v count = %d, want %d", b.UpperBound, b.Count, want[i])
		}
	}
	if hs.Count != 5 {
		t.Fatalf("snapshot count = %d, want 5 (one obs beyond the last bound)", hs.Count)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: everything lands in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	hs, _ := r.Snapshot().Histogram("lat")
	if got := hs.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.5 (interpolated within first bucket)", got)
	}
	if got := hs.Quantile(1.0); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("p100 = %v, want 1.0", got)
	}
	if got := hs.Mean(); math.Abs(got-0.505) > 1e-9 {
		t.Fatalf("mean = %v, want 0.505", got)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zero quantile and mean")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Getter races exercise the registry's double-checked creation.
			c := r.Counter("hits_total", "", L("g", "x"))
			g := r.Gauge("level", "")
			h := r.Histogram("obs", "", []float64{0.25, 0.5, 1})
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%4) / 4)
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if v, _ := snap.Counter("hits_total", L("g", "x")); v != goroutines*perG {
		t.Fatalf("counter = %d, want %d", v, goroutines*perG)
	}
	if v, _ := snap.Gauge("level"); v != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", v, goroutines*perG)
	}
	hs, _ := snap.Histogram("obs")
	if hs.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", hs.Count, goroutines*perG)
	}
	wantSum := float64(goroutines) * perG / 4 * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(hs.Sum-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", hs.Sum, wantSum)
	}
}

// TestConcurrentCreateAndRead adds children to an existing family while
// other goroutines snapshot and expose the registry; run under -race.
func TestConcurrentCreateAndRead(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("hits_total", "", L("k", strconv.Itoa(id*1000+j))).Inc()
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				r.Snapshot()
				if err := r.WriteText(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(r.Snapshot().Counters); n != 1+4*200 {
		t.Fatalf("%d counters, want %d", n, 1+4*200)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad args did not panic")
		}
	}()
	ExponentialBuckets(0, 2, 4)
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", L("k", "v")).Add(3)
	r.Gauge("b", "").Set(1.5)
	r.Histogram("c", "", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Counter("a_total", L("k", "v")); !ok || v != 3 {
		t.Fatalf("round-tripped counter = %d (found %v)", v, ok)
	}
	if h, ok := back.Histogram("c"); !ok || h.Count != 1 {
		t.Fatalf("round-tripped histogram count = %d (found %v)", h.Count, ok)
	}
}
