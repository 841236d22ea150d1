package assign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casc/internal/model"
)

func TestBoundsLemmaV2V3(t *testing.T) {
	// For every worker in every feasible group drawn from its co-candidate
	// set, the average quality must sit inside [q̌_{i,B}, q̂_{i,B}].
	r := rand.New(rand.NewSource(21))
	in := randomInstance(r, 40, 12, 3)
	bounds := Bounds(in)
	co := refCoCandidateSets(in)
	for w := 0; w < len(in.Workers); w++ {
		if !bounds[w].Feasible {
			if len(co[w]) >= in.B-1 {
				t.Fatalf("worker %d has %d peers but marked infeasible", w, len(co[w]))
			}
			continue
		}
		if bounds[w].QCheck > bounds[w].QHat+1e-12 {
			t.Fatalf("worker %d: q̌ %v > q̂ %v", w, bounds[w].QCheck, bounds[w].QHat)
		}
		// Sample random groups of B..B+2 peers containing w.
		for trial := 0; trial < 50; trial++ {
			size := in.B + r.Intn(3)
			if size-1 > len(co[w]) {
				continue
			}
			peers := append([]int(nil), co[w]...)
			r.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
			group := append([]int{w}, peers[:size-1]...)
			avg := in.WorkerAvgQuality(w, group, size)
			if avg > bounds[w].QHat+1e-9 {
				t.Fatalf("worker %d: avg %v exceeds q̂ %v (Lemma V.2 violated)", w, avg, bounds[w].QHat)
			}
			if avg < bounds[w].QCheck-1e-9 {
				t.Fatalf("worker %d: avg %v below q̌ %v (Lemma V.3 violated)", w, avg, bounds[w].QCheck)
			}
		}
	}
}

func TestBoundsDegenerateB(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	in := randomInstance(r, 10, 4, 2)
	in.B = 1
	for _, b := range Bounds(in) {
		if b.Feasible || b.QHat != 0 {
			t.Fatal("B<2 should produce zero bounds")
		}
	}
}

func TestAnalyzeEquilibrium(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	in := randomInstance(r, 60, 20, 3)
	gt := NewGT(GTOptions{})
	a, err := gt.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// N_init of Theorem V.2: the tasks GT's TPG initialization finishes.
	init, err := NewTPG().Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	eq := AnalyzeEquilibrium(in, a, init.CompletedTasks(in))
	if eq.Upper <= 0 {
		t.Fatal("UPPER should be positive on a connected instance")
	}
	if eq.Achieved > eq.Upper+1e-9 {
		t.Fatalf("achieved %v above UPPER %v", eq.Achieved, eq.Upper)
	}
	// Theorem V.2: the worst equilibrium still earns at least N_init·B·q̌,
	// so the one GT found must too.
	if eq.Achieved < eq.PoALowerBound-1e-9 {
		t.Fatalf("achieved %v below the PoA lower bound %v", eq.Achieved, eq.PoALowerBound)
	}
	if eq.AchievedRatio <= 0 || eq.AchievedRatio > 1 {
		t.Fatalf("achieved ratio %v outside (0,1]", eq.AchievedRatio)
	}
}

func TestAnalyzeEquilibriumEmptyInstance(t *testing.T) {
	in := &model.Instance{Quality: fakeQ{}, B: 3}
	in.BuildCandidates(model.IndexLinear)
	a := model.NewAssignment(in)
	eq := AnalyzeEquilibrium(in, a, 0)
	if eq.Upper != 0 || eq.Achieved != 0 || eq.PoALowerBound != 0 || eq.AchievedRatio != 0 {
		t.Fatalf("nonzero analysis on empty instance: %+v", eq)
	}
}

type fakeQ struct{}

func (fakeQ) Quality(i, k int) float64 { return 0 }
func (fakeQ) NumWorkers() int          { return 0 }

func TestWSTBetweenRandAndGT(t *testing.T) {
	// WST is self-interested but uncoordinated: across instances it should
	// land between RAND and GT in aggregate.
	r := rand.New(rand.NewSource(24))
	ctx := context.Background()
	var wst, gt, rnd float64
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(r, 80, 25, 3)
		score := func(s Solver) float64 {
			a, err := s.Solve(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(in); err != nil {
				t.Fatalf("WST-family solver produced invalid assignment: %v", err)
			}
			return a.TotalScore(in)
		}
		wst += score(NewWST())
		gt += score(NewGT(GTOptions{}))
		rnd += score(NewRandom(int64(trial)))
	}
	if wst <= rnd {
		t.Errorf("WST aggregate %v not above RAND %v", wst, rnd)
	}
	if wst >= gt {
		t.Errorf("WST aggregate %v not below GT %v", wst, gt)
	}
}

func TestWSTByName(t *testing.T) {
	s, err := ByName("WST", 0)
	if err != nil || s.Name() != "WST" {
		t.Fatalf("ByName(WST) = %v, %v", s, err)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	ctx := context.Background()
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(r, 8, 3, 2)
		brute, err := NewBruteForce().Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		ex := &Exact{}
		opt, err := ex.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Optimal {
			t.Fatalf("trial %d: exact did not prove optimality on a tiny instance", trial)
		}
		if err := opt.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bs, es := brute.TotalScore(in), opt.TotalScore(in)
		if math.Abs(bs-es) > 1e-9 {
			t.Fatalf("trial %d: exact %v != brute force %v", trial, es, bs)
		}
	}
}

func TestExactScalesBeyondBruteForce(t *testing.T) {
	// 18 workers with ~4 candidates each: ~5^18 brute-force states, far out
	// of reach, but branch and bound closes it.
	r := rand.New(rand.NewSource(26))
	in := randomInstance(r, 18, 5, 2)
	ex := &Exact{}
	a, err := ex.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Optimal {
		t.Skip("bound too weak for this draw; acceptable, B&B is best-effort beyond tiny sizes")
	}
	// GT can at best match the optimum.
	gt, _ := NewGT(GTOptions{}).Solve(context.Background(), in)
	if gt.TotalScore(in) > a.TotalScore(in)+1e-9 {
		t.Fatalf("GT %v beats proven optimum %v", gt.TotalScore(in), a.TotalScore(in))
	}
}

func TestExactNodeCap(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	in := randomInstance(r, 40, 15, 3)
	ex := &Exact{MaxNodes: 100}
	a, err := ex.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Optimal {
		t.Error("node cap hit but Optimal still true")
	}
	if err := a.Validate(in); err != nil {
		t.Fatalf("capped exact returned invalid assignment: %v", err)
	}
}

func TestExactContextCancel(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	in := randomInstance(r, 30, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &Exact{}
	a, err := ex.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Optimal {
		t.Error("cancelled run claimed optimality")
	}
	if a == nil {
		t.Fatal("nil assignment")
	}
}

func TestUpperTightIsValidAndTighter(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ctx := context.Background()
	tighterSomewhere := false
	for trial := 0; trial < 8; trial++ {
		// Capacity-scarce shape: Σ a_j well below the worker count, so the
		// task-side term (the one UpperTight improves) is the binding one.
		in := randomInstance(r, 80, 8, 3)
		loose, tight := Upper(in), UpperTight(in)
		if tight > loose+1e-9 {
			t.Fatalf("trial %d: UpperTight %v above Upper %v", trial, tight, loose)
		}
		if tight < loose-1e-9 {
			tighterSomewhere = true
		}
		// Still a valid bound on every solver.
		for _, name := range []string{"TPG", "GT"} {
			s, _ := ByName(name, 1)
			a, err := s.Solve(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if sc := a.TotalScore(in); sc > tight+1e-9 {
				t.Fatalf("trial %d: %s score %v above UpperTight %v", trial, name, sc, tight)
			}
		}
		// And on the true optimum of a tiny instance.
		if trial == 0 {
			small := randomInstance(r, 7, 3, 2)
			opt, err := NewBruteForce().Solve(ctx, small)
			if err != nil {
				t.Fatal(err)
			}
			if opt.TotalScore(small) > UpperTight(small)+1e-9 {
				t.Fatal("OPT above UpperTight")
			}
		}
	}
	if !tighterSomewhere {
		t.Error("UpperTight never improved on Upper across 8 instances")
	}
}
