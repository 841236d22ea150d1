package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"casc/internal/coop"
	"casc/internal/geo"
)

func TestValidPair(t *testing.T) {
	w := Worker{Loc: geo.Pt(0, 0), Speed: 0.1, Radius: 0.5, Arrive: 0}
	tests := []struct {
		name string
		task Task
		now  float64
		want bool
	}{
		{"reachable in area", Task{Loc: geo.Pt(0.3, 0), Deadline: 10}, 0, true},
		{"outside area", Task{Loc: geo.Pt(0.6, 0), Deadline: 100}, 0, false},
		{"too slow for deadline", Task{Loc: geo.Pt(0.3, 0), Deadline: 2}, 0, false},
		{"exactly at deadline", Task{Loc: geo.Pt(0.3, 0), Deadline: 3}, 0, true},
		{"expired task", Task{Loc: geo.Pt(0.1, 0), Deadline: 5}, 6, false},
		{"task created in the future", Task{Loc: geo.Pt(0.1, 0), Created: 5, Deadline: 10}, 0, false},
		{"on area boundary", Task{Loc: geo.Pt(0.5, 0), Deadline: 100}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Valid(w, tt.task, tt.now); got != tt.want {
				t.Errorf("Valid = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValidZeroSpeedWorker(t *testing.T) {
	w := Worker{Loc: geo.Pt(0.2, 0.2), Speed: 0, Radius: 0.5}
	colocated := Task{Loc: geo.Pt(0.2, 0.2), Deadline: 1}
	if !Valid(w, colocated, 0) {
		t.Error("zero-speed worker at the task location should be valid")
	}
	distant := Task{Loc: geo.Pt(0.3, 0.2), Deadline: 1000}
	if Valid(w, distant, 0) {
		t.Error("zero-speed worker can never reach a distant task")
	}
}

// TestValidTravelOneHypot checks ValidTravel, which takes one Hypot for
// both the disc test and the travel time, against the former form that
// took three: InDisc's, InDisc's again and TravelTime's Dist, the last
// from w to t. Tasks sit at 3-4-5 offsets of u from the worker and on it
// (d == 0); the radius and the deadline sit on, one ulp inside and one ulp
// outside their boundaries, and the speed is positive, zero or negative.
func TestValidTravelOneHypot(t *testing.T) {
	former := func(w Worker, tk Task, now float64) bool {
		if tk.Created > now || w.Arrive > now {
			return false
		}
		slack := tk.Deadline - now
		if slack < 0 {
			return false
		}
		// The index's InDisc and ValidTravel's were the same expression.
		if !(math.Hypot(tk.Loc.X-w.Loc.X, tk.Loc.Y-w.Loc.Y) <= w.Radius) {
			return false
		}
		d := math.Hypot(w.Loc.X-tk.Loc.X, w.Loc.Y-tk.Loc.Y)
		travel := 0.0
		if d != 0 {
			travel = math.Inf(1)
			if w.Speed > 0 {
				travel = d / w.Speed
			}
		}
		return travel <= slack
	}
	around := func(x float64) []float64 {
		return []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))}
	}
	offsets := [][2]float64{{3, 4}, {-4, 3}, {5, 0}, {0, -5}, {0, 0}}
	var admitted, rejected int
	for _, c := range []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(1.0/3, 0.7), geo.Pt(0.5, 0.25)} {
		for _, u := range []float64{0.1, 1.0 / 255, 0.03} {
			for _, o := range offsets {
				loc := geo.Pt(c.X+o[0]*u, c.Y+o[1]*u)
				d := math.Hypot(c.X-loc.X, c.Y-loc.Y)
				for _, speed := range []float64{1, 0.37, 0, -1} {
					for _, rad := range around(5 * u) {
						w := Worker{Loc: c, Speed: speed, Radius: rad}
						deadlines := []float64{1}
						if speed > 0 {
							deadlines = around(d / speed)
						}
						for _, dl := range deadlines {
							tk := Task{Loc: loc, Deadline: dl}
							got, want := ValidTravel(w, tk, 0, nil), former(w, tk, 0)
							if got != want {
								t.Fatalf("ValidTravel(%v, %v) = %v, the three-Hypot form says %v", w, tk, got, want)
							}
							if got {
								admitted++
							} else {
								rejected++
							}
						}
					}
				}
			}
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("admitted %d and rejected %d pairs; the cases must reach both verdicts", admitted, rejected)
	}
}

func TestValidWorkerNotYetArrived(t *testing.T) {
	w := Worker{Loc: geo.Pt(0, 0), Speed: 1, Radius: 1, Arrive: 5}
	task := Task{Loc: geo.Pt(0.1, 0), Deadline: 10}
	if Valid(w, task, 0) {
		t.Error("worker arriving later should be invalid now")
	}
	if !Valid(w, task, 5) {
		t.Error("worker should be valid once arrived")
	}
}

// smallInstance builds the running example of the paper's introduction
// (Example 1, Figure 1): two tasks needing two workers each, four workers.
// Cooperation qualities are chosen so that the naive assignment
// {w1,w2}→t1, {w3,w4}→t2 scores 0.2 and the good one {w1,w4}→t1,
// {w2,w3}→t2 scores 1.8, as the example states.
func smallInstance() *Instance {
	q := coop.NewMatrix(4)
	q.Set(0, 1, 0.05) // q(w1,w2)
	q.Set(2, 3, 0.05) // q(w3,w4)
	q.Set(0, 3, 0.50) // q(w1,w4)
	q.Set(1, 2, 0.40) // q(w2,w3)
	in := &Instance{
		Workers: []Worker{
			{ID: 1, Loc: geo.Pt(0.2, 0.2), Speed: 1, Radius: 0.4},
			{ID: 2, Loc: geo.Pt(0.4, 0.4), Speed: 1, Radius: 0.9},
			{ID: 3, Loc: geo.Pt(0.7, 0.7), Speed: 1, Radius: 0.9},
			{ID: 4, Loc: geo.Pt(0.3, 0.5), Speed: 1, Radius: 0.9},
		},
		Tasks: []Task{
			{ID: 1, Loc: geo.Pt(0.3, 0.3), Capacity: 2, Deadline: 10},
			{ID: 2, Loc: geo.Pt(0.6, 0.6), Capacity: 2, Deadline: 10},
		},
		Quality: q,
		B:       2,
	}
	return in
}

func TestExample1Scores(t *testing.T) {
	in := smallInstance()
	bad := NewAssignment(in)
	bad.Assign(0, 0)
	bad.Assign(1, 0)
	bad.Assign(2, 1)
	bad.Assign(3, 1)
	if got := bad.TotalScore(in); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("naive assignment score = %v, want 0.2", got)
	}
	good := NewAssignment(in)
	good.Assign(0, 0)
	good.Assign(3, 0)
	good.Assign(1, 1)
	good.Assign(2, 1)
	if got := good.TotalScore(in); math.Abs(got-1.8) > 1e-12 {
		t.Errorf("good assignment score = %v, want 1.8", got)
	}
}

func TestGroupQualityEquation2(t *testing.T) {
	q := coop.NewMatrix(4)
	q.Set(0, 1, 0.6)
	q.Set(0, 2, 0.2)
	q.Set(1, 2, 0.4)
	in := &Instance{Quality: q, B: 2}

	if got := in.GroupQuality([]int{0}, 5); got != 0 {
		t.Errorf("below B: Q = %v, want 0", got)
	}
	// Three workers, capacity 3: ordered pair sum = 2*(0.6+0.2+0.4) = 2.4,
	// denominator min(3,3)-1 = 2 → Q = 1.2.
	if got := in.GroupQuality([]int{0, 1, 2}, 3); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("Q = %v, want 1.2", got)
	}
	// Capacity 2 with 3 workers: denominator min(3,2)-1 = 1 → Q = 2.4.
	if got := in.GroupQuality([]int{0, 1, 2}, 2); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("over-capacity Q = %v, want 2.4", got)
	}
	// Pair: Q = 2*0.6 / 1.
	if got := in.GroupQuality([]int{0, 1}, 5); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("pair Q = %v, want 1.2", got)
	}
}

func TestWorkerAvgQualityDecomposition(t *testing.T) {
	// Q(W) must equal Σ_i q_i(W), per the paper's remark after Definition 2.
	r := rand.New(rand.NewSource(1))
	q := coop.NewMatrix(6)
	for i := 0; i < 6; i++ {
		for k := i + 1; k < 6; k++ {
			q.Set(i, k, r.Float64())
		}
	}
	in := &Instance{Quality: q, B: 2}
	ws := []int{0, 2, 3, 5}
	var sum float64
	for _, w := range ws {
		sum += in.WorkerAvgQuality(w, ws, 4)
	}
	if total := in.GroupQuality(ws, 4); math.Abs(total-sum) > 1e-9 {
		t.Errorf("Σ q_i(W) = %v, Q(W) = %v", sum, total)
	}
	if got := in.WorkerAvgQuality(0, []int{0}, 4); got != 0 {
		t.Errorf("avg quality below B = %v", got)
	}
}

func TestDeltaQualityEquation4(t *testing.T) {
	q := coop.NewMatrix(3)
	q.Set(0, 1, 0.5)
	q.Set(0, 2, 0.3)
	q.Set(1, 2, 0.7)
	in := &Instance{Quality: q, B: 2}
	// Worker 2 joining {0,1} with capacity 3:
	// Q({0,1,2}) = 2*(0.5+0.3+0.7)/2 = 1.5; Q({0,1}) = 1.0; Δ = 0.5.
	if got := in.DeltaQuality(2, []int{0, 1}, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ΔQ = %v, want 0.5", got)
	}
	// Worker 1 joining {0}: group reaches B, Δ = Q({0,1}) = 1.0.
	if got := in.DeltaQuality(1, []int{0}, 3); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ΔQ to reach B = %v, want 1.0", got)
	}
}

func TestGroupScoreIncrementalConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n = 12
	q := coop.NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			q.Set(i, k, r.Float64())
		}
	}
	in := &Instance{Quality: q, B: 3}
	g := in.NewGroupScore(8)
	inGroup := map[int]bool{}
	for step := 0; step < 2000; step++ {
		w := r.Intn(n)
		if inGroup[w] {
			// Check LeaveDelta against ground truth before leaving.
			before := g.Q()
			want := before - in.GroupQuality(removeOne(g.Members(), w), g.Capacity())
			if got := g.LeaveDelta(w); math.Abs(got-want) > 1e-9 {
				t.Fatalf("step %d: LeaveDelta = %v, want %v", step, got, want)
			}
			g.Leave(w)
			delete(inGroup, w)
		} else if g.Len() < g.Capacity() {
			withW := append(append([]int(nil), g.Members()...), w)
			want := in.GroupQuality(withW, g.Capacity()) - g.Q()
			if got := g.JoinDelta(w); math.Abs(got-want) > 1e-9 {
				t.Fatalf("step %d: JoinDelta = %v, want %v", step, got, want)
			}
			g.Join(w)
			inGroup[w] = true
		}
		if got, want := g.Q(), in.GroupQuality(g.Members(), g.Capacity()); math.Abs(got-want) > 1e-9 {
			t.Fatalf("step %d: incremental Q = %v, recomputed %v", step, got, want)
		}
	}
}

func removeOne(ws []int, w int) []int {
	out := make([]int, 0, len(ws)-1)
	for _, x := range ws {
		if x != w {
			out = append(out, x)
		}
	}
	return out
}

func TestGroupScoreSwapDelta(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 10
	q := coop.NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			q.Set(i, k, r.Float64())
		}
	}
	in := &Instance{Quality: q, B: 2}
	g := in.NewGroupScore(4)
	for _, w := range []int{0, 1, 2, 3} {
		g.Join(w)
	}
	for out := 0; out < 4; out++ {
		for inW := 4; inW < n; inW++ {
			swapped := append(removeOne([]int{0, 1, 2, 3}, out), inW)
			want := in.GroupQuality(swapped, 4) - g.Q()
			if got := g.SwapDelta(out, inW); math.Abs(got-want) > 1e-9 {
				t.Fatalf("SwapDelta(%d,%d) = %v, want %v", out, inW, got, want)
			}
		}
	}
}

func TestGroupScorePanics(t *testing.T) {
	in := &Instance{Quality: coop.NewMatrix(4), B: 2}
	fullGroup := func() *GroupScore {
		g := in.NewGroupScore(2)
		g.Join(0)
		g.Join(1)
		return g
	}
	for name, f := range map[string]func(){
		"join full":       func() { fullGroup().Join(2) },
		"join duplicate":  func() { g := fullGroup(); g.Leave(0); g.Join(1) },
		"leave nonmember": func() { fullGroup().Leave(3) },
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

func TestBuildCandidatesAllIndexesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	in := randomInstance(r, 120, 60)
	var results [][][]int
	for _, kind := range []IndexKind{IndexRTree, IndexGrid, IndexLinear} {
		in.BuildCandidates(kind)
		cp := make([][]int, len(in.WorkerCand))
		for i, c := range in.WorkerCand {
			cp[i] = append([]int(nil), c...)
		}
		results = append(results, cp)
	}
	for i := range results[0] {
		for v := 1; v < len(results); v++ {
			if !equalInts(results[0][i], results[v][i]) {
				t.Fatalf("worker %d: index kinds disagree: %v vs %v", i, results[0][i], results[v][i])
			}
		}
	}
	// Cross-check against the definition directly.
	for i, w := range in.Workers {
		var want []int
		for j, task := range in.Tasks {
			if Valid(w, task, in.Now) {
				want = append(want, j)
			}
		}
		if !equalInts(results[0][i], want) {
			t.Fatalf("worker %d: candidates %v, want %v", i, results[0][i], want)
		}
	}
	// Reverse map consistency.
	for j, ws := range in.TaskCand {
		for _, w := range ws {
			if !containsInt(in.WorkerCand[w], j) {
				t.Fatalf("TaskCand inconsistent: task %d lists worker %d", j, w)
			}
		}
	}
}

func randomInstance(r *rand.Rand, nW, nT int) *Instance {
	in := &Instance{
		Quality: coop.Synthetic{N: nW, Seed: 9},
		B:       3,
		Now:     1,
	}
	for i := 0; i < nW; i++ {
		in.Workers = append(in.Workers, Worker{
			ID:     i,
			Loc:    geo.Pt(r.Float64(), r.Float64()),
			Speed:  0.01 + r.Float64()*0.05,
			Radius: 0.02 + r.Float64()*0.15,
		})
	}
	for j := 0; j < nT; j++ {
		in.Tasks = append(in.Tasks, Task{
			ID:       j,
			Loc:      geo.Pt(r.Float64(), r.Float64()),
			Capacity: 3 + r.Intn(3),
			Deadline: 1 + 1 + r.Float64()*4,
		})
	}
	return in
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestAssignmentOps(t *testing.T) {
	in := smallInstance()
	in.BuildCandidates(IndexLinear)
	a := NewAssignment(in)
	a.Assign(0, 0)
	a.Assign(1, 0)
	if a.NumAssigned() != 2 {
		t.Errorf("NumAssigned = %d", a.NumAssigned())
	}
	if a.TaskOf(0) != 0 || a.TaskOf(2) != Unassigned {
		t.Error("TaskOf wrong")
	}
	a.Move(1, 1)
	if a.TaskOf(1) != 1 || len(a.TaskWorkers[0]) != 1 {
		t.Error("Move did not update both maps")
	}
	a.Unassign(0)
	a.Unassign(0) // idempotent
	if a.NumAssigned() != 1 {
		t.Errorf("NumAssigned after unassign = %d", a.NumAssigned())
	}
	pairs := a.Pairs()
	if len(pairs) != 1 || pairs[0] != (Pair{Worker: 1, Task: 1}) {
		t.Errorf("Pairs = %v", pairs)
	}
	c := a.Clone()
	c.Assign(2, 1)
	if a.NumAssigned() != 1 {
		t.Error("Clone shares state with original")
	}
}

func TestAssignmentAssignTwicePanics(t *testing.T) {
	in := smallInstance()
	a := NewAssignment(in)
	a.Assign(0, 0)
	defer func() {
		if recover() == nil {
			t.Error("double assign should panic")
		}
	}()
	a.Assign(0, 1)
}

// TestAssignmentValidate has one case per branch of Validate: a valid
// assignment, and each violation with the error it must produce. The cases
// run in one sequence, so a mark left by one call would show in the next.
func TestAssignmentValidate(t *testing.T) {
	in := smallInstance()
	in.BuildCandidates(IndexLinear)
	// Worker 0 (radius 0.4 at (0.2,0.2)) reaches task 0 but not task 1 at
	// (0.6,0.6) (distance ~0.57); workers 1-3 reach both.
	cases := []struct {
		name string
		edit func(a *Assignment)
		want string // error substring; "" for a valid assignment
	}{
		{"valid", func(a *Assignment) { a.Assign(0, 0); a.Assign(1, 0); a.Assign(2, 1) }, ""},
		{"empty", func(a *Assignment) {}, ""},
		{"WorkerTask too short", func(a *Assignment) { a.WorkerTask = a.WorkerTask[:3] }, "shape mismatch"},
		{"TaskWorkers too long", func(a *Assignment) { a.TaskWorkers = append(a.TaskWorkers, nil) }, "shape mismatch"},
		{"over capacity", func(a *Assignment) { a.Assign(0, 0); a.Assign(1, 0); a.Assign(3, 0) }, "holds 3 workers, capacity 2"},
		{"worker out of range", func(a *Assignment) { a.TaskWorkers[0] = []int{4} }, "lists worker 4 of 4"},
		{"negative worker", func(a *Assignment) { a.TaskWorkers[1] = []int{-1} }, "lists worker -1 of 4"},
		{"twice in one task", func(a *Assignment) {
			a.Assign(1, 0)
			a.TaskWorkers[0] = append(a.TaskWorkers[0], 1)
		}, "worker 1 twice in task 0"},
		{"in two tasks", func(a *Assignment) {
			a.Assign(1, 0)
			a.TaskWorkers[1] = append(a.TaskWorkers[1], 1)
		}, "worker 1 in tasks 0 and 1"},
		{"invalid pair", func(a *Assignment) { a.Assign(0, 1) }, "invalid pair ⟨w0, t1⟩"},
		{"listed but unassigned", func(a *Assignment) {
			a.Assign(1, 0)
			a.WorkerTask[1] = Unassigned
		}, "worker 1 in TaskWorkers but marked unassigned"},
		{"listed under another task", func(a *Assignment) {
			a.Assign(1, 0)
			a.WorkerTask[1] = 1
		}, "worker 1 maps to task 1 but TaskWorkers says 0"},
		{"assigned but not listed", func(a *Assignment) {
			a.Assign(2, 1)
			a.TaskWorkers[1] = nil
		}, "worker 2 maps to task 1 but is absent from TaskWorkers"},
		{"assigned to a task out of range", func(a *Assignment) { a.WorkerTask[3] = 2 }, "worker 3 maps to task 2 but is absent"},
		{"valid again", func(a *Assignment) { a.Assign(3, 0); a.Assign(1, 1) }, ""},
	}
	for _, tc := range cases {
		a := NewAssignment(in)
		tc.edit(a)
		err := a.Validate(in)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: valid assignment rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: not caught, want %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

func TestInstanceValidate(t *testing.T) {
	in := smallInstance()
	if err := in.Validate(); err != nil {
		t.Errorf("good instance rejected: %v", err)
	}
	bad := smallInstance()
	bad.B = 0
	if err := bad.Validate(); err == nil {
		t.Error("B=0 accepted")
	}
	bad2 := smallInstance()
	bad2.Quality = coop.NewMatrix(2)
	if err := bad2.Validate(); err == nil {
		t.Error("undersized quality model accepted")
	}
	bad3 := smallInstance()
	bad3.Workers[0].Speed = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative speed accepted")
	}
	bad4 := smallInstance()
	bad4.Tasks[0].Capacity = 0
	if err := bad4.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestCompletedTasksAndNumValidPairs(t *testing.T) {
	in := smallInstance()
	in.BuildCandidates(IndexLinear)
	if in.NumValidPairs() == 0 {
		t.Fatal("expected some valid pairs")
	}
	a := NewAssignment(in)
	a.Assign(1, 1)
	if a.CompletedTasks(in) != 0 {
		t.Error("one worker below B counted as complete")
	}
	a.Assign(2, 1)
	if a.CompletedTasks(in) != 1 {
		t.Error("task with B workers not counted")
	}
}

func TestStringers(t *testing.T) {
	w := Worker{ID: 3, Loc: geo.Pt(0.1, 0.2), Speed: 0.05, Radius: 0.3}
	if s := w.String(); !strings.Contains(s, "Worker{3") || !strings.Contains(s, "v=0.050") {
		t.Errorf("worker string: %s", s)
	}
	task := Task{ID: 7, Loc: geo.Pt(0.5, 0.5), Capacity: 4, Deadline: 2.5}
	if s := task.String(); !strings.Contains(s, "Task{7") || !strings.Contains(s, "cap=4") {
		t.Errorf("task string: %s", s)
	}
	in := smallInstance()
	a := NewAssignment(in)
	for i := 0; i < 4; i++ {
		a.Assign(i, i%2)
	}
	s := a.String()
	if !strings.Contains(s, "4 pairs") || !strings.Contains(s, "w0→t0") {
		t.Errorf("assignment string: %s", s)
	}
	// Truncation branch.
	big := &Instance{Quality: coop.NewMatrix(10), B: 2}
	for i := 0; i < 10; i++ {
		big.Workers = append(big.Workers, Worker{ID: i, Loc: geo.Pt(0.5, 0.5), Speed: 1, Radius: 1})
	}
	big.Tasks = []Task{{ID: 0, Loc: geo.Pt(0.5, 0.5), Capacity: 10, Deadline: 5}}
	ab := NewAssignment(big)
	for i := 0; i < 10; i++ {
		ab.Assign(i, 0)
	}
	if s := ab.String(); !strings.Contains(s, "…(+4)") {
		t.Errorf("truncated string: %s", s)
	}
}
