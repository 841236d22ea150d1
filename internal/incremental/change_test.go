package incremental_test

import (
	"context"
	"testing"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/model"
)

// TestRoundAllocsIndependentOfCleanComponents: a steady-state churn round
// allocates the same whatever the number of clean components. The
// population is perfbench's churn shape: stuck sites one worker short of B
// that never change, and one active site where B workers and a task arrive
// every round and leave as a dispatched group. A round is BeginRound →
// arrivals → Plan → Solve → UPPER → Commit.
func TestRoundAllocsIndependentOfCleanComponents(t *testing.T) {
	const B, grid = 4, 23
	base := coop.Synthetic{N: 1 << 20, Seed: 3}
	ctx := context.Background()

	churn := func(stuck int) func() {
		eng := incremental.New(incremental.Config{B: B, Carry: true})
		solver := assign.NewTPG()
		eng.BeginRound(0)
		nextW, nextT := 0, 0
		site := func(s int) geo.Point {
			return geo.Pt((float64(s%grid)+0.5)/grid, (float64(s/grid)+0.5)/grid)
		}
		at := func(p geo.Point, k int) geo.Point { return geo.Pt(p.X+0.001*float64(k), p.Y) }
		for s := 1; s <= stuck; s++ {
			for k := 0; k < B-1; k++ {
				eng.AddWorker(model.Worker{ID: nextW, Loc: at(site(s), k), Speed: 1, Radius: 0.01})
				nextW++
			}
			for k := 0; k < 2; k++ {
				eng.AddTask(model.Task{ID: nextT, Loc: at(site(s), k), Capacity: B, Deadline: 1e9})
				nextT++
			}
		}
		now := 0.0
		var ids []int
		var remW, remT []int
		return func() {
			if now > 0 {
				eng.BeginRound(now)
			}
			for k := 0; k < B; k++ {
				eng.AddWorker(model.Worker{ID: nextW, Loc: at(site(0), k), Speed: 1, Radius: 0.01, Arrive: now})
				nextW++
			}
			eng.AddTask(model.Task{ID: nextT, Loc: site(0), Capacity: B, Created: now, Deadline: now + 10})
			nextT++

			r := eng.Plan()
			ids = ids[:0]
			for _, w := range r.In.Workers {
				ids = append(ids, w.ID)
			}
			r.In.Quality = coop.NewSubset(base, ids)
			a, err := eng.Solve(ctx, solver)
			if err != nil {
				t.Fatal(err)
			}
			eng.Upper()
			remW, remT = remW[:0], remT[:0]
			for w, tk := range a.WorkerTask {
				if tk != model.Unassigned {
					remW = append(remW, w)
				}
			}
			for tk, ws := range a.TaskWorkers {
				if len(ws) > 0 {
					remT = append(remT, tk)
				}
			}
			if now > 0 && (len(remW) != B || len(remT) != 1 || r.Resolved != 1 || r.Carried != stuck) {
				t.Fatalf("round %v: dispatched %d workers and %d tasks, re-solved %d and carried %d components; want %d, 1, 1, %d",
					now, len(remW), len(remT), r.Resolved, r.Carried, B, stuck)
			}
			eng.Commit(a, remW, remT)
			now++
		}
	}

	allocs := func(stuck int) float64 {
		round := churn(stuck)
		for i := 0; i < 20; i++ {
			round()
		}
		return testing.AllocsPerRun(100, round)
	}
	small, large := allocs(50), allocs(500)
	t.Logf("allocs per round: %.0f", small)
	if small != large {
		t.Fatalf("a churn round allocates %.0f times with 50 stuck sites and %.0f with 500", small, large)
	}
}
