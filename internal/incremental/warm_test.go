package incremental_test

import (
	"context"
	"slices"
	"testing"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/model"
)

// TestWarmKeepsSharedTaskID: two live tasks share one external ID (the warm
// cache's key). Dropping one must keep the entry, which the other still
// uses; dropping the second must forget it; an ID whose last task expires
// but is posted again before the Commit keeps its entry. Each step is
// checked against the former whole-population prune.
func TestWarmKeepsSharedTaskID(t *testing.T) {
	const B, id = 2, 7
	eng := incremental.New(incremental.Config{B: B, Carry: true})
	solver := assign.NewTPG()
	base := coop.Synthetic{N: 16, Seed: 5}

	round := func(now float64, remT []int) {
		t.Helper()
		r := eng.Plan()
		ids := make([]int, len(r.In.Workers))
		for i, w := range r.In.Workers {
			ids[i] = w.ID
		}
		r.In.Quality = coop.NewSubset(base, ids)
		a, err := eng.Solve(context.Background(), solver)
		if err != nil {
			t.Fatal(err)
		}
		before := incremental.WarmIDs(eng)
		if !slices.Contains(before, id) {
			t.Fatalf("t=%v: solve cached %v, want an entry for task ID %d", now, before, id)
		}
		eng.Commit(a, nil, remT)
		if got, want := incremental.WarmIDs(eng), incremental.OraclePrunedIDs(eng, before); !slices.Equal(got, want) {
			t.Fatalf("t=%v: warm IDs %v, old prune keeps %v", now, got, want)
		}
	}

	eng.BeginRound(0)
	for i := 0; i < 4; i++ {
		eng.AddWorker(model.Worker{ID: i, Loc: geo.Pt(0.5+0.01*float64(i), 0.5), Speed: 1, Radius: 0.2})
	}
	eng.AddTask(model.Task{ID: id, Loc: geo.Pt(0.5, 0.5), Capacity: B, Deadline: 10})
	eng.AddTask(model.Task{ID: id, Loc: geo.Pt(0.52, 0.5), Capacity: B, Deadline: 10})
	round(0, []int{0})
	if got := incremental.WarmIDs(eng); !slices.Equal(got, []int{id}) {
		t.Fatalf("after dropping one of two tasks with ID %d: warm IDs %v", id, got)
	}

	eng.BeginRound(1)
	round(1, []int{0})
	if got := incremental.WarmIDs(eng); len(got) != 0 {
		t.Fatalf("after dropping the last task with ID %d: warm IDs %v", id, got)
	}

	// The ID's last task expires and a new task takes the ID before the
	// next Commit: the entry stays.
	eng.BeginRound(2)
	eng.AddTask(model.Task{ID: id, Loc: geo.Pt(0.5, 0.5), Capacity: B, Deadline: 3.5})
	round(2, nil)
	if exp := eng.BeginRound(4); !slices.Equal(exp, []int{id}) {
		t.Fatalf("expired %v, want [%d]", exp, id)
	}
	eng.AddTask(model.Task{ID: id, Loc: geo.Pt(0.5, 0.5), Capacity: B, Deadline: 10})
	round(4, nil)
	if got := incremental.WarmIDs(eng); !slices.Equal(got, []int{id}) {
		t.Fatalf("after re-posting task ID %d: warm IDs %v", id, got)
	}
}
