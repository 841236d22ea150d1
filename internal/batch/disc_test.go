package batch

import (
	"testing"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
)

// TestStagesAgreeOnDiscBoundary posts a task at (0.4, 0.5) in round 0 and
// lets two workers at (0.1, 0.1) with radius 0.5 arrive in round 1. Hypot
// of the rounded offsets is exactly 0.5, but their squares sum to
// 0.25000000000000006 > 0.25, so a stage that decided the disc on squared
// distance found no pair while the other dispatched the task. Both stages
// must find the two pairs and score alike.
func TestStagesAgreeOnDiscBoundary(t *testing.T) {
	src := &GeneratorSource{
		Model: coop.Synthetic{N: 2, Seed: 1},
		WorkersFn: func(round int) []model.Worker {
			if round != 1 {
				return nil
			}
			w := model.Worker{Loc: geo.Pt(0.1, 0.1), Speed: 1, Radius: 0.5, Arrive: 1}
			v := w
			v.ID = 1
			return []model.Worker{w, v}
		},
		TasksFn: func(round int) []model.Task {
			if round != 0 {
				return nil
			}
			return []model.Task{{Loc: geo.Pt(0.4, 0.5), Capacity: 2, Deadline: 5}}
		},
	}
	cfg := Config{Solver: assign.NewTPG(), Rounds: 3, B: 2}
	base, inc, baseTr, incTr := runBoth(t, cfg, src)
	assertBitwiseEqual(t, base, inc, baseTr, incTr)
	if got := base.Batches[1].ValidPairs; got != 2 {
		t.Fatalf("round 1 found %d valid pairs, want 2", got)
	}
	if base.DispatchedTasks != 1 {
		t.Fatalf("dispatched %d tasks, want 1", base.DispatchedTasks)
	}
}
