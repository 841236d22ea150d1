package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casc/internal/metrics"
)

// TestBestResponseMemo walks random GT trajectories that mix best-response
// moves with random ones (crowd-outs and leaves included). After every
// Apply it checks each worker whose memo is still current against a fresh
// evaluation, bit for bit, then refreshes a random half of the workers
// through BestResponse, so memos of every age get checked.
func TestBestResponseMemo(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ctx := context.Background()
	ar := NewArena()
	var checked, hits uint64
	for trial := 0; trial < 16; trial++ {
		in := randomInstance(r, 20+r.Intn(60), 2+r.Intn(12), 2+r.Intn(2))
		if trial%2 == 1 {
			in.Quality = tiedQuality(len(in.Workers))
		}
		init, err := NewRandom(int64(trial)).Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		g := newCASCGame(in, init)
		if trial%4 >= 2 {
			g = ar.gameFor(in, init)
		}
		for w := range in.Workers {
			g.BestResponse(w)
		}
		for step := 0; step < 80; step++ {
			w := r.Intn(len(in.Workers))
			cand := in.WorkerCand[w]
			s, _, improving := g.BestResponse(w)
			if !improving || r.Intn(2) == 0 {
				if len(cand) == 0 {
					continue
				}
				s = r.Intn(len(cand) + 1)
				if s < len(cand) && cand[s] == g.cur[w] {
					continue
				}
			}
			g.Apply(w, s)
			for v := range in.Workers {
				if !g.memoCurrent(v) {
					continue
				}
				hits := g.memoHits
				ms, mg, mi := g.BestResponse(v)
				if g.memoHits != hits+1 {
					t.Fatalf("trial %d step %d worker %d: current memo not served", trial, step, v)
				}
				fs, fg, fi := g.bestResponse(v)
				if ms != fs || math.Float64bits(mg) != math.Float64bits(fg) || mi != fi {
					t.Fatalf("trial %d step %d worker %d: memo (%d, %v, %v), fresh (%d, %v, %v)",
						trial, step, v, ms, mg, mi, fs, fg, fi)
				}
				checked++
			}
			for v := range in.Workers {
				if r.Intn(2) == 0 {
					g.BestResponse(v)
				}
			}
		}
		hits += g.memoHits
	}
	if checked == 0 || hits == 0 {
		t.Fatalf("memo never exercised: %d current memos checked, %d hits", checked, hits)
	}
}

// TestReuseCounters checks that the solves of the equivalence tests
// actually take both reuse paths, and that GT flushes them under its own
// label: the memo hits and its TPG initialization's seed reuses.
func TestReuseCounters(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ctx := context.Background()
	reg := metrics.NewRegistry()
	tpg := &TPG{Metrics: reg, Arena: NewArena()}
	gt := &GT{Metrics: reg, Arena: NewArena()}
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(r, 60+r.Intn(60), 5+r.Intn(15), 3)
		if trial%2 == 1 {
			in.Quality = tiedQuality(len(in.Workers))
		}
		got, err := tpg.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, in, got, refTPGSolve(ctx, NewTPG(), in), "TPG")
		if got, err = gt.Solve(ctx, in); err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, in, got, refGTSolve(ctx, GTOptions{}, in), "GT")
	}
	snap := reg.Snapshot()
	for _, c := range []struct{ name, solver string }{
		{MetricTPGSeedReuses, "TPG"},
		{MetricTPGSeedReuses, "GT"},
		{MetricGTMemoHits, "GT"},
	} {
		if n, _ := snap.Counter(c.name, metrics.L("solver", c.solver)); n == 0 {
			t.Errorf("%s{solver=%q} = 0, want > 0", c.name, c.solver)
		}
	}
	calls, _ := snap.Counter(MetricGTBestResponses, metrics.L("solver", "GT"))
	hits, _ := snap.Counter(MetricGTMemoHits, metrics.L("solver", "GT"))
	if hits >= calls {
		t.Errorf("%d memo hits out of %d best-response calls: hits are a subset of calls", hits, calls)
	}
}
