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

// newChurn returns an engine holding perfbench's churn shape, a function
// that runs one steady-state round on it, and the instance's quality
// model, which counts the calls of every round so far. The population is
// stuck sites one worker short of B that never change, and one active site
// where B workers and a task arrive every round and leave as a dispatched
// group. A round is BeginRound → arrivals → Plan → Solve → UPPER → Commit.
func newChurn(tb testing.TB, stuck int) (*incremental.Engine, func(), *countingModel) {
	const B, grid = 4, 23
	base := coop.Synthetic{N: 1 << 20, Seed: 3}
	quality := &countingModel{}
	ctx := context.Background()

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
	return eng, func() {
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
		quality.base = coop.NewSubset(base, ids)
		r.In.Quality = quality
		a, err := eng.Solve(ctx, solver)
		if err != nil {
			tb.Fatal(err)
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
			tb.Fatalf("round %v: dispatched %d workers and %d tasks, re-solved %d and carried %d components; want %d, 1, 1, %d",
				now, len(remW), len(remT), r.Resolved, r.Carried, B, stuck)
		}
		eng.Commit(a, remW, remT)
		now++
	}, quality
}

// TestRoundAllocsIndependentOfCleanComponents: a steady-state churn round
// allocates the same whatever the number of clean components.
func TestRoundAllocsIndependentOfCleanComponents(t *testing.T) {
	allocs := func(stuck int) float64 {
		_, round, _ := newChurn(t, stuck)
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

// TestRoundWorkIndependentOfCleanComponents: in a steady-state churn round
// the edges BeginRound examines, the positions and candidate lists Plan
// rewrites, and the quality calls of the solve and UPPER are the same
// whatever the number of clean components. Only the active site changes,
// so only its entities may be touched.
func TestRoundWorkIndependentOfCleanComponents(t *testing.T) {
	work := func(stuck int) (incremental.Work, int) {
		eng, round, quality := newChurn(t, stuck)
		for i := 0; i < 20; i++ {
			round()
		}
		before := quality.calls
		round()
		return incremental.RoundWork(eng), quality.calls - before
	}
	small, smallCalls := work(50)
	large, largeCalls := work(500)
	t.Logf("work per round: %+v, %d quality calls", small, smallCalls)
	if small != large || smallCalls != largeCalls {
		t.Fatalf("a churn round's work is %+v and %d quality calls with 50 stuck sites, %+v and %d with 500",
			small, smallCalls, large, largeCalls)
	}
	if small.Workers == 0 || small.Tasks == 0 || smallCalls == 0 {
		t.Fatalf("Plan rewrote %+v and the round made %d quality calls, want the active site's arrivals and its solve", small, smallCalls)
	}
}

// BenchmarkChurnRound times one steady-state churn round with 500 stuck
// sites and reports the round's work: edges BeginRound examined,
// positions and candidate lists Plan rewrote, and quality calls.
func BenchmarkChurnRound(b *testing.B) {
	eng, round, quality := newChurn(b, 500)
	for i := 0; i < 20; i++ {
		round()
	}
	var sum incremental.Work
	calls := quality.calls
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
		w := incremental.RoundWork(eng)
		sum.Edges += w.Edges
		sum.Workers += w.Workers
		sum.Tasks += w.Tasks
		sum.Lists += w.Lists
	}
	n := float64(b.N)
	b.ReportMetric(float64(quality.calls-calls)/n, "quality_calls/round")
	b.ReportMetric(float64(sum.Edges)/n, "edges/round")
	b.ReportMetric(float64(sum.Workers+sum.Tasks)/n, "positions/round")
	b.ReportMetric(float64(sum.Lists)/n, "lists/round")
}

// TestScheduleVisitsOnlyDueTasks: BeginRound examines the edges of a task
// only when its schedule comes due — a gate opening, an edge's slack
// running out, the deadline — and never those of a task with nothing due.
func TestScheduleVisitsOnlyDueTasks(t *testing.T) {
	eng := incremental.New(incremental.Config{B: 2})
	eng.BeginRound(0)
	// Task 0 stands with nothing due; its worker arrived.
	eng.AddWorker(model.Worker{ID: 0, Loc: geo.Pt(0.05, 0.9), Speed: 1, Radius: 0.1})
	eng.AddTask(model.Task{ID: 0, Loc: geo.Pt(0.05, 0.95), Capacity: 2, Deadline: 100})
	// Task 1's worker arrives at 1 (gate); at 0.5 away with speed 0.5 its
	// edge drops once the slack falls under 1, after 4; the task expires
	// at 5.
	eng.AddWorker(model.Worker{ID: 1, Loc: geo.Pt(0.5, 0.25), Speed: 0.5, Radius: 0.5, Arrive: 1})
	eng.AddTask(model.Task{ID: 1, Loc: geo.Pt(0.5, 0.75), Capacity: 2, Deadline: 5})
	cands := func() int { return len(eng.Plan().In.TaskCand[1]) }
	if n := cands(); n != 0 {
		t.Fatalf("gated edge listed before its gate: %d candidates", n)
	}
	eng.Commit(nil, nil, nil)
	steps := []struct {
		now          float64
		edges, cands int
	}{
		{0.5, 0, 0}, // nothing due
		{1, 1, 1},   // the gate opens
		{3.9, 0, 1}, // nothing due
		{4, 1, 1},   // due within rounding of the drop: slack 1 still admits travel 1
		{4.5, 1, 0}, // the edge drops
	}
	for _, s := range steps {
		eng.BeginRound(s.now)
		n := cands()
		if w := incremental.RoundWork(eng); w.Edges != s.edges || n != s.cands {
			t.Fatalf("t=%v: BeginRound examined %d edges and task 1 lists %d candidates, want %d and %d",
				s.now, w.Edges, n, s.edges, s.cands)
		}
		eng.Commit(nil, nil, nil)
	}
	if got := eng.BeginRound(4.9); len(got) != 0 {
		t.Fatalf("t=4.9: expired %v, want none", got)
	}
	if got := eng.BeginRound(5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("t=5: expired %v, want [1]", got)
	}
}

// TestMaxRadiusShrinks: once the widest worker leaves, AddTask queries the
// worker grid at the largest remaining radius, and the task's edges are
// those of a fresh build.
func TestMaxRadiusShrinks(t *testing.T) {
	eng := incremental.New(incremental.Config{B: 2})
	eng.BeginRound(0)
	var workers []model.Worker
	for i := 0; i < 30; i++ {
		w := model.Worker{ID: i, Loc: geo.Pt(float64(i%6)/6+0.05, float64(i/6)/5+0.05), Speed: 1, Radius: []float64{0.1, 0.2, 0.3}[i%3]}
		workers = append(workers, w)
		eng.AddWorker(w)
	}
	wide := model.Worker{ID: 99, Loc: geo.Pt(0.5, 0.5), Speed: 1, Radius: 0.9}
	eng.AddWorker(wide)
	eng.AddWorker(wide) // two at the largest radius: the first to leave keeps it
	eng.Plan()
	eng.Commit(nil, []int{30}, nil)
	if r := incremental.MaxRadius(eng); r != 0.9 {
		t.Fatalf("one of two widest workers left: query radius %v, want 0.9", r)
	}
	eng.BeginRound(1)
	eng.Plan()
	eng.Commit(nil, []int{30}, nil)
	if r := incremental.MaxRadius(eng); r != 0.3 {
		t.Fatalf("both widest workers left: query radius %v, want 0.3", r)
	}

	eng.BeginRound(2)
	task := model.Task{ID: 0, Loc: geo.Pt(0.45, 0.4), Capacity: 2, Deadline: 10}
	eng.AddTask(task)
	within := 0
	for _, w := range workers {
		if geo.InDisc(w.Loc, task.Loc, 0.3) {
			within++
		}
	}
	if got := incremental.GridHits(eng); got != within {
		t.Fatalf("AddTask's query returned %d workers, want the %d within 0.3", got, within)
	}
	in := eng.Plan().In
	fresh := &model.Instance{B: 2, Now: 2, Workers: workers, Tasks: []model.Task{task}}
	fresh.BuildCandidates(model.IndexRTree)
	if err := candEqual(in.TaskCand, fresh.TaskCand); err != nil {
		t.Fatalf("task edges differ from a fresh build: %v", err)
	}
	if len(fresh.TaskCand[0]) == 0 {
		t.Fatal("the task has no candidate; the test checks nothing")
	}
}
