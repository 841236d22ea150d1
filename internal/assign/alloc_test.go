package assign

import (
	"context"
	"math/rand"
	"testing"

	"casc/internal/game"
	"casc/internal/model"
)

// These tests pin the tentpole invariant of the arena refactor: once a
// solver with a persistent arena has seen one instance (the sizing solve,
// which grows every buffer), repeat solves of comparable instances perform
// zero heap allocations. A regression here means a hot-path make, map, or
// interface boxing crept back into the solve loop — exactly what the
// hotalloc lint rule guards statically; this guards it dynamically.

func steadyStateInstance(t testing.TB) *model.Instance {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	return randomInstance(r, 120, 30, 3)
}

func requireZeroAllocs(t *testing.T, label string, f func()) {
	t.Helper()
	f() // sizing solve: grows the arena to this instance's footprint
	if avg := testing.AllocsPerRun(20, f); avg != 0 {
		t.Fatalf("%s steady-state solve allocates %.1f times per run, want 0", label, avg)
	}
}

func TestTPGSteadyStateAllocs(t *testing.T) {
	in := steadyStateInstance(t)
	ctx := context.Background()
	s := NewTPG()
	s.SetArena(NewArena())
	requireZeroAllocs(t, "TPG", func() {
		if _, err := s.Solve(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTPGWarmSteadyStateAllocs(t *testing.T) {
	in := steadyStateInstance(t)
	ctx := context.Background()
	s := NewTPG()
	s.SetArena(NewArena())
	warm := NewWarm()
	requireZeroAllocs(t, "TPG+warm", func() {
		if _, err := s.SolveWarm(ctx, in, warm); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGTSteadyStateAllocs(t *testing.T) {
	in := steadyStateInstance(t)
	ctx := context.Background()
	for _, opts := range []GTOptions{{}, {LUB: true}, {LUB: true, Epsilon: 0.01}} {
		s := NewGT(opts)
		s.SetArena(NewArena())
		requireZeroAllocs(t, s.Name(), func() {
			if _, err := s.Solve(ctx, in); err != nil {
				t.Fatal(err)
			}
		})
		if s.Name() == "GT" {
			a, err := s.Solve(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			requireCrowdOutEvaluated(t, in, a, s.Stats)
		}
	}
}

// requireCrowdOutEvaluated asserts that a plain-GT solve ran the crowd-out
// evaluation (GroupScore.BestSwap), so the zero-allocation claim covers it.
// Eager dynamics stop at a Nash equilibrium only after a round that
// evaluates every worker's every candidate task, so a full task in the
// result with a candidate worker outside it was scored as a crowd-out in
// that round.
func requireCrowdOutEvaluated(t *testing.T, in *model.Instance, a *model.Assignment, st game.Result) {
	t.Helper()
	if st.Reason != game.StopNash {
		t.Fatalf("GT stopped by %q, want %q", st.Reason, game.StopNash)
	}
	for tk, ws := range a.TaskWorkers {
		if len(ws) < in.Tasks[tk].Capacity {
			continue
		}
		for _, w := range in.TaskCand[tk] {
			if a.WorkerTask[w] != tk {
				return
			}
		}
	}
	t.Fatal("no full task has an outside candidate: the instance never reaches the crowd-out path")
}

// TestThrowawayArenaStillWorks covers the nil-arena path: same code, fresh
// scratch per call — correctness only, no alloc assertion.
func TestThrowawayArenaStillWorks(t *testing.T) {
	in := steadyStateInstance(t)
	ctx := context.Background()
	withArena := NewTPG()
	withArena.SetArena(NewArena())
	want, err := withArena.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewTPG().Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, in, got, want, "TPG nil-arena vs persistent-arena")
}
