package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casc/internal/coop"
	"casc/internal/game"
	"casc/internal/geo"
	"casc/internal/model"
)

// exampleInstance reproduces Example 1 / Figure 1 of the paper: two tasks
// needing two workers each (B = a_j = 2) and four workers. Worker w1 can
// only accept t1; w2, w3, w4 reach both tasks. Qualities make the naive
// assignment score 0.2 and the good one 1.8.
func exampleInstance() *model.Instance {
	q := coop.NewMatrix(4)
	q.Set(0, 1, 0.05) // q(w1,w2)
	q.Set(2, 3, 0.05) // q(w3,w4)
	q.Set(0, 3, 0.50) // q(w1,w4)
	q.Set(1, 2, 0.40) // q(w2,w3)
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 1, Loc: geo.Pt(0.25, 0.25), Speed: 1, Radius: 0.15},
			{ID: 2, Loc: geo.Pt(0.45, 0.45), Speed: 1, Radius: 0.9},
			{ID: 3, Loc: geo.Pt(0.55, 0.55), Speed: 1, Radius: 0.9},
			{ID: 4, Loc: geo.Pt(0.35, 0.35), Speed: 1, Radius: 0.9},
		},
		Tasks: []model.Task{
			{ID: 1, Loc: geo.Pt(0.3, 0.3), Capacity: 2, Deadline: 10},
			{ID: 2, Loc: geo.Pt(0.7, 0.7), Capacity: 2, Deadline: 10},
		},
		Quality: q,
		B:       2,
	}
	in.BuildCandidates(model.IndexLinear)
	return in
}

// randomInstance builds a well-connected random CA-SC batch.
func randomInstance(r *rand.Rand, nW, nT, b int) *model.Instance {
	in := &model.Instance{
		Quality: coop.Synthetic{N: nW, Seed: uint64(r.Int63())},
		B:       b,
		Now:     0,
	}
	for i := 0; i < nW; i++ {
		in.Workers = append(in.Workers, model.Worker{
			ID:     i,
			Loc:    geo.Pt(r.Float64(), r.Float64()),
			Speed:  0.02 + r.Float64()*0.08,
			Radius: 0.1 + r.Float64()*0.2,
		})
	}
	for j := 0; j < nT; j++ {
		in.Tasks = append(in.Tasks, model.Task{
			ID:       j,
			Loc:      geo.Pt(r.Float64(), r.Float64()),
			Capacity: b + r.Intn(3),
			Deadline: 2 + r.Float64()*3,
		})
	}
	in.BuildCandidates(model.IndexRTree)
	return in
}

func allSolvers(t *testing.T) []Solver {
	t.Helper()
	var out []Solver
	for _, name := range AllNames() {
		s, err := ByName(name, 7)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, s.Name())
		}
		out = append(out, s)
	}
	return out
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("SIMPLEX", 0); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestAllSolversProduceValidAssignments(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		in := randomInstance(r, 60, 20, 3)
		for _, s := range allSolvers(t) {
			a, err := s.Solve(ctx, in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if err := a.Validate(in); err != nil {
				t.Fatalf("trial %d %s: invalid assignment: %v", trial, s.Name(), err)
			}
			if score := a.TotalScore(in); score < 0 {
				t.Fatalf("trial %d %s: negative score %v", trial, s.Name(), score)
			}
		}
	}
}

func TestExample1TPGFindsGoodAssignment(t *testing.T) {
	in := exampleInstance()
	a, err := NewTPG().Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.TotalScore(in); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("TPG score = %v, want 1.8 (the example's good assignment)", got)
	}
	// w1 (index 0) and w4 (index 3) must share task t1 (index 0).
	if a.TaskOf(0) != 0 || a.TaskOf(3) != 0 {
		t.Errorf("w1,w4 not on t1: tasks %d,%d", a.TaskOf(0), a.TaskOf(3))
	}
	if a.TaskOf(1) != 1 || a.TaskOf(2) != 1 {
		t.Errorf("w2,w3 not on t2: tasks %d,%d", a.TaskOf(1), a.TaskOf(2))
	}
}

func TestExample1GTFindsGoodAssignment(t *testing.T) {
	in := exampleInstance()
	gt := NewGT(GTOptions{})
	a, err := gt.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.TotalScore(in); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("GT score = %v, want 1.8", got)
	}
	if gt.Stats.Reason != game.StopNash {
		t.Errorf("GT stopped by %s, want nash", gt.Stats.Reason)
	}
}

func TestGTReachesNashEquilibrium(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		in := randomInstance(r, 50, 15, 3)
		for _, opts := range []GTOptions{{}, {LUB: true}} {
			gt := NewGT(opts)
			a, err := gt.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if gt.Stats.Reason != game.StopNash {
				t.Fatalf("trial %d %s: stopped by %s", trial, gt.Name(), gt.Stats.Reason)
			}
			// Rebuild the game at the final assignment and verify the Nash
			// property independently.
			g := newCASCGame(in, a)
			if !game.IsNash(g, 1e-9) {
				t.Fatalf("trial %d %s: final assignment is not a Nash equilibrium", trial, gt.Name())
			}
		}
	}
}

func TestGTImprovesOnTPG(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	worse := 0
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(r, 70, 25, 3)
		tpg, _ := NewTPG().Solve(context.Background(), in)
		gt, _ := NewGT(GTOptions{}).Solve(context.Background(), in)
		st, sg := tpg.TotalScore(in), gt.TotalScore(in)
		if sg < st-1e-9 {
			worse++
			t.Logf("trial %d: GT %v < TPG %v", trial, sg, st)
		}
	}
	// Best-response dynamics start from TPG and the potential only
	// increases, so GT can never score below TPG.
	if worse > 0 {
		t.Errorf("GT scored below its TPG initialization in %d/10 trials", worse)
	}
}

func TestExactPotentialPropertyTheoremV1(t *testing.T) {
	// For random unilateral deviations to non-full tasks, the utility change
	// must equal the potential change exactly (Theorem V.1).
	r := rand.New(rand.NewSource(4))
	in := randomInstance(r, 40, 12, 2)
	init, _ := NewRandom(1).Solve(context.Background(), in)
	g := newCASCGame(in, init)
	checked := 0
	for trial := 0; trial < 500; trial++ {
		w := r.Intn(len(in.Workers))
		cand := in.WorkerCand[w]
		if len(cand) == 0 {
			continue
		}
		si := r.Intn(len(cand) + 1) // include the "leave" strategy
		var utilityGain float64
		if si == len(cand) {
			if g.cur[w] == model.Unassigned {
				continue
			}
			utilityGain = -g.groups[g.cur[w]].LeaveDelta(w)
		} else {
			tsk := cand[si]
			if tsk == g.cur[w] {
				continue
			}
			if g.groups[tsk].Len() >= g.groups[tsk].Capacity() {
				continue // crowding moves are not exact-potential; skip
			}
			gain, evict := g.moveGain(w, tsk, g.in.CandPos(w, si), g.leaveLoss(w))
			if evict >= 0 {
				continue
			}
			utilityGain = gain
		}
		before := g.Potential()
		g.Apply(w, si)
		after := g.Potential()
		if math.Abs((after-before)-utilityGain) > 1e-9 {
			t.Fatalf("trial %d: ΔF = %v, ΔU = %v (exact potential violated)",
				trial, after-before, utilityGain)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d deviations checked; instance too sparse", checked)
	}
}

func TestUpperBoundsEverySolver(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		in := randomInstance(r, 60, 20, 3)
		ub := Upper(in)
		for _, s := range allSolvers(t) {
			a, err := s.Solve(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if score := a.TotalScore(in); score > ub+1e-9 {
				t.Errorf("trial %d: %s score %v exceeds UPPER %v", trial, s.Name(), score, ub)
			}
		}
	}
}

func TestUpperBoundsBruteForceOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(r, 7, 3, 2)
		opt, err := NewBruteForce().Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Validate(in); err != nil {
			t.Fatalf("brute force produced invalid assignment: %v", err)
		}
		optScore := opt.TotalScore(in)
		if ub := Upper(in); optScore > ub+1e-9 {
			t.Errorf("trial %d: OPT %v > UPPER %v", trial, optScore, ub)
		}
		// Heuristics never beat the optimum.
		for _, name := range []string{"TPG", "GT"} {
			s, _ := ByName(name, 1)
			a, _ := s.Solve(ctx, in)
			if sc := a.TotalScore(in); sc > optScore+1e-9 {
				t.Errorf("trial %d: %s %v beats OPT %v", trial, name, sc, optScore)
			}
		}
	}
}

func TestGTNearOptimalOnSmallInstances(t *testing.T) {
	// The paper reports GT achieving 50-97% of UPPER; against the true
	// optimum on small instances it should do even better. We assert ≥ 80%
	// of OPT on average.
	r := rand.New(rand.NewSource(7))
	ctx := context.Background()
	var ratioSum float64
	trials := 0
	for trials < 15 {
		in := randomInstance(r, 8, 3, 2)
		opt, _ := NewBruteForce().Solve(ctx, in)
		optScore := opt.TotalScore(in)
		if optScore < 1e-9 {
			continue // degenerate: nothing assignable
		}
		a, _ := NewGT(GTOptions{}).Solve(ctx, in)
		ratioSum += a.TotalScore(in) / optScore
		trials++
	}
	if avg := ratioSum / float64(trials); avg < 0.8 {
		t.Errorf("GT averages %.2f of OPT on small instances, want ≥ 0.80", avg)
	}
}

func TestMFlowMaximizesAssignedPairs(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		in := randomInstance(r, 50, 15, 3)
		mf, _ := NewMFlow().Solve(ctx, in)
		for _, name := range []string{"TPG", "GT", "RAND"} {
			s, _ := ByName(name, 3)
			a, _ := s.Solve(ctx, in)
			if a.NumAssigned() > mf.NumAssigned() {
				t.Errorf("trial %d: %s assigned %d pairs, MFLOW only %d — max flow not maximal",
					trial, name, a.NumAssigned(), mf.NumAssigned())
			}
		}
	}
}

func TestCooperationAwareBeatsBaselines(t *testing.T) {
	// The paper's headline result: TPG and GT score far above MFLOW and
	// RAND. Check it holds on random instances in aggregate.
	r := rand.New(rand.NewSource(9))
	ctx := context.Background()
	var tpgSum, gtSum, mflowSum, randSum float64
	for trial := 0; trial < 5; trial++ {
		in := randomInstance(r, 80, 25, 3)
		score := func(name string) float64 {
			s, _ := ByName(name, int64(trial))
			a, _ := s.Solve(ctx, in)
			return a.TotalScore(in)
		}
		tpgSum += score("TPG")
		gtSum += score("GT")
		mflowSum += score("MFLOW")
		randSum += score("RAND")
	}
	if tpgSum <= mflowSum || tpgSum <= randSum {
		t.Errorf("TPG (%v) does not beat MFLOW (%v) / RAND (%v)", tpgSum, mflowSum, randSum)
	}
	if gtSum < tpgSum-1e-9 {
		t.Errorf("GT (%v) below TPG (%v)", gtSum, tpgSum)
	}
}

func TestTSIStopsEarlier(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	in := randomInstance(r, 120, 40, 3)
	plain := NewGT(GTOptions{})
	aPlain, _ := plain.Solve(context.Background(), in)
	tsi := NewGT(GTOptions{Epsilon: 0.05})
	aTSI, _ := tsi.Solve(context.Background(), in)
	if tsi.Stats.Rounds > plain.Stats.Rounds {
		t.Errorf("TSI used %d rounds, plain GT %d", tsi.Stats.Rounds, plain.Stats.Rounds)
	}
	// TSI may lose a little score but not much (paper: "only slightly hurt").
	sp, st := aPlain.TotalScore(in), aTSI.TotalScore(in)
	if st < 0.85*sp {
		t.Errorf("TSI score %v below 85%% of GT score %v", st, sp)
	}
}

func TestLUBSavesBestResponseCalls(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := randomInstance(r, 150, 50, 3)
	plain := NewGT(GTOptions{})
	if _, err := plain.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	lub := NewGT(GTOptions{LUB: true})
	if _, err := lub.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Rounds > 2 && lub.Stats.BestResponseCalls >= plain.Stats.BestResponseCalls {
		t.Errorf("LUB made %d best-response calls, plain %d — no savings",
			lub.Stats.BestResponseCalls, plain.Stats.BestResponseCalls)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	in := randomInstance(r, 40, 10, 3)
	a1, _ := NewRandom(5).Solve(context.Background(), in)
	a2, _ := NewRandom(5).Solve(context.Background(), in)
	p1, p2 := a1.Pairs(), a2.Pairs()
	if len(p1) != len(p2) {
		t.Fatal("same seed produced different assignments")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestEmptyInstances(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		nW, nT int
	}{
		{"no workers", 0, 5},
		{"no tasks", 5, 0},
		{"nothing", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := &model.Instance{Quality: coop.Synthetic{N: tc.nW, Seed: 1}, B: 3}
			r := rand.New(rand.NewSource(1))
			for i := 0; i < tc.nW; i++ {
				in.Workers = append(in.Workers, model.Worker{Loc: geo.Pt(r.Float64(), r.Float64()), Speed: 0.1, Radius: 0.3})
			}
			for j := 0; j < tc.nT; j++ {
				in.Tasks = append(in.Tasks, model.Task{Loc: geo.Pt(r.Float64(), r.Float64()), Capacity: 3, Deadline: 5})
			}
			in.BuildCandidates(model.IndexRTree)
			for _, s := range allSolvers(t) {
				a, err := s.Solve(ctx, in)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				if err := a.Validate(in); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				if a.TotalScore(in) != 0 {
					t.Fatalf("%s: nonzero score on empty instance", s.Name())
				}
			}
			if ub := Upper(in); ub != 0 {
				t.Errorf("UPPER = %v on empty instance", ub)
			}
		})
	}
}

func TestNoValidPairs(t *testing.T) {
	// Workers with tiny radii far from every task.
	in := &model.Instance{Quality: coop.Synthetic{N: 5, Seed: 1}, B: 2}
	for i := 0; i < 5; i++ {
		in.Workers = append(in.Workers, model.Worker{Loc: geo.Pt(0.1, 0.1), Speed: 0.1, Radius: 0.01})
	}
	in.Tasks = append(in.Tasks, model.Task{Loc: geo.Pt(0.9, 0.9), Capacity: 3, Deadline: 5})
	in.BuildCandidates(model.IndexLinear)
	ctx := context.Background()
	for _, s := range allSolvers(t) {
		a, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if a.NumAssigned() != 0 {
			t.Errorf("%s assigned workers with no valid pairs", s.Name())
		}
	}
}

func TestContextCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	in := randomInstance(r, 100, 30, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range allSolvers(t) {
		a, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatalf("%s returned error on cancelled context: %v", s.Name(), err)
		}
		if a == nil {
			t.Fatalf("%s returned nil assignment", s.Name())
		}
		if err := a.Validate(in); err != nil {
			t.Fatalf("%s: partial assignment invalid: %v", s.Name(), err)
		}
	}
}

func TestGTRandomInitAblation(t *testing.T) {
	// Random-init GT must still reach a Nash equilibrium; TPG init usually
	// gives it a head start but both end stable.
	r := rand.New(rand.NewSource(14))
	in := randomInstance(r, 60, 20, 3)
	gt := NewGT(GTOptions{RandomInit: true})
	a, err := gt.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Stats.Reason != game.StopNash {
		t.Fatalf("stopped by %s", gt.Stats.Reason)
	}
	g := newCASCGame(in, a)
	if !game.IsNash(g, 1e-9) {
		t.Fatal("random-init GT did not reach Nash")
	}
}

func TestTPGRespectsCapacityAndB(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 5; trial++ {
		in := randomInstance(r, 60, 20, 3)
		a, _ := NewTPG().Solve(context.Background(), in)
		for tsk, ws := range a.TaskWorkers {
			if len(ws) > 0 && len(ws) < in.B {
				t.Errorf("trial %d: task %d holds %d workers (< B=%d) after TPG",
					trial, tsk, len(ws), in.B)
			}
		}
	}
}

func TestBruteForcePanicsOnHugeInstance(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	in := randomInstance(r, 100, 50, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for oversized brute force")
		}
	}()
	_, _ = NewBruteForce().Solve(context.Background(), in)
}

func TestUpperMonotoneInCapacity(t *testing.T) {
	// Raising every task's capacity can only raise the upper bound.
	r := rand.New(rand.NewSource(17))
	in := randomInstance(r, 50, 15, 3)
	lo := Upper(in)
	for j := range in.Tasks {
		in.Tasks[j].Capacity += 2
	}
	hi := Upper(in)
	if hi < lo-1e-9 {
		t.Errorf("UPPER decreased when capacities grew: %v -> %v", lo, hi)
	}
}

func TestGTAnytimeProfile(t *testing.T) {
	// §V-D: "the increase of the total cooperation score for each round
	// will become smaller and smaller until convergence" — GT's anytime
	// profile must be monotone in potential with non-negative gains, and
	// the first round (starting from random init so there is room to climb)
	// must gain the most in aggregate.
	r := rand.New(rand.NewSource(91))
	in := randomInstance(r, 80, 25, 3)
	gt := NewGT(GTOptions{RandomInit: true, RecordAnytime: true})
	a, err := gt.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.Anytime) == 0 {
		t.Fatal("no anytime profile recorded")
	}
	last := -1.0
	for i, pt := range gt.Anytime {
		if pt.Gain < -1e-9 {
			t.Fatalf("round %d: negative gain %v", pt.Round, pt.Gain)
		}
		if pt.Potential < last-1e-9 {
			t.Fatalf("round %d: potential decreased %v -> %v", pt.Round, last, pt.Potential)
		}
		last = pt.Potential
		if pt.Round != i+1 {
			t.Fatalf("round numbering: %d at index %d", pt.Round, i)
		}
	}
	final := gt.Anytime[len(gt.Anytime)-1].Potential
	if math.Abs(final-a.TotalScore(in)) > 1e-9 {
		t.Fatalf("final potential %v != assignment score %v", final, a.TotalScore(in))
	}
	if len(gt.Anytime) >= 3 {
		if gt.Anytime[0].Gain < gt.Anytime[len(gt.Anytime)-1].Gain {
			t.Errorf("gains did not shrink: first %v, last %v",
				gt.Anytime[0].Gain, gt.Anytime[len(gt.Anytime)-1].Gain)
		}
	}
}
