package incremental_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/model"
)

// countingModel counts the quality calls that reach base.
type countingModel struct {
	base  model.QualityModel
	calls int
}

func (c *countingModel) Quality(i, k int) float64 {
	c.calls++
	return c.base.Quality(i, k)
}
func (c *countingModel) NumWorkers() int { return c.base.NumWorkers() }

// palette is an asymmetric quality table over positions whose entries,
// diagonal included, cycle through NaN, ±0, negative, subnormal and
// ordinary values.
type palette int

var paletteVals = []float64{0.25, math.NaN(), math.Copysign(0, -1), 0, -0.75, 5e-324, 1, -math.MaxFloat64, 0.1}

func (p palette) Quality(i, k int) float64 { return paletteVals[(5*i+3*k+i*k)%len(paletteVals)] }
func (p palette) NumWorkers() int          { return int(p) }

// probe is a solver that hands its instance to the function and assigns
// nothing.
type probe func(in *model.Instance)

func (p probe) Name() string { return "probe" }
func (p probe) Solve(_ context.Context, in *model.Instance) (*model.Assignment, error) {
	p(in)
	return model.NewAssignment(in), nil
}

// within wraps a solver and counts the calls that reach base while it
// solves.
type within struct {
	assign.Solver
	base  *countingModel
	calls int
}

func (w *within) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	before := w.base.calls
	a, err := w.Solver.Solve(ctx, in)
	w.calls += w.base.calls - before
	return a, err
}

// site returns n workers and the given number of tasks around c; every
// worker can reach every task.
func site(c geo.Point, n, tasks int) ([]model.Worker, []model.Task) {
	ws := make([]model.Worker, n)
	for i := range ws {
		ws[i] = model.Worker{ID: i, Loc: geo.Pt(c.X+1e-4*float64(i%20), c.Y+1e-4*float64(i/20)), Speed: 1, Radius: 0.05}
	}
	ts := make([]model.Task, tasks)
	for j := range ts {
		ts[j] = model.Task{ID: j, Loc: geo.Pt(c.X+1e-3*float64(j), c.Y), Capacity: 4, Deadline: 10}
	}
	return ws, ts
}

// chain returns n workers and n−1 tasks on a line, task j between workers
// j and j+1 and in reach of those two only: one component in which every
// task has two candidates.
func chain(n int) ([]model.Worker, []model.Task) {
	ws := make([]model.Worker, n)
	for i := range ws {
		ws[i] = model.Worker{ID: i, Loc: geo.Pt(0.05+0.01*float64(i), 0.5), Speed: 1, Radius: 0.006}
	}
	ts := make([]model.Task, n-1)
	for j := range ts {
		ts[j] = model.Task{ID: j, Loc: geo.Pt(0.055+0.01*float64(j), 0.5), Capacity: 2, Deadline: 10}
	}
	return ws, ts
}

// planned runs one engine round's BeginRound, arrivals and Plan over ws
// and ts, and sets the instance's quality to q.
func planned(b int, ws []model.Worker, ts []model.Task, q model.QualityModel) (*incremental.Engine, *incremental.Round) {
	eng := incremental.New(incremental.Config{B: b})
	eng.BeginRound(0)
	for _, w := range ws {
		eng.AddWorker(w)
	}
	for _, t := range ts {
		eng.AddTask(t)
	}
	r := eng.Plan()
	r.In.Quality = q
	return eng, r
}

// TestBlockBits: a solve reads every quality of an eligible component,
// diagonal included, with the bits of the layered model it replaces (the
// sub-instance's Subset, whose diagonal is 0), over an asymmetric table
// with NaN, ±0 and negative entries; and it reads them from the block,
// without a call to the model.
func TestBlockBits(t *testing.T) {
	ws, ts := site(geo.Pt(0.5, 0.5), 30, 2)
	base := &countingModel{base: palette(len(ws))}
	eng, r := planned(4, ws, ts, base)
	if len(r.Comps) != 1 || len(r.Comps[0].Workers) != len(ws) {
		t.Fatalf("planned %d components, want one holding all %d workers", len(r.Comps), len(ws))
	}
	members := r.Comps[0].Workers
	layered := model.NewSubset(palette(len(ws)), members)
	checked := 0
	s := &within{base: base, Solver: probe(func(in *model.Instance) {
		n := in.Quality.NumWorkers()
		if n != len(members) {
			t.Fatalf("block has %d workers, want %d", n, len(members))
		}
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				got := in.Quality.Quality(i, k)
				want := layered.Quality(i, k)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Quality(%d, %d) = %v (%#x), the layered model gives %v (%#x)",
						i, k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				checked++
			}
		}
	})}
	if _, err := eng.Solve(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if want := len(ws) * len(ws); checked != want {
		t.Fatalf("the solve read %d qualities, want %d", checked, want)
	}
	if s.calls != 0 {
		t.Fatalf("the solve made %d calls to the model, want 0: it did not read the block", s.calls)
	}
}

// TestBlockCallsWhenEligible: an eligible 30-worker site costs exactly
// n(n−1) calls to the instance's model, all of them filling the block
// before the solve (the sub-instance's Subset answers the diagonal
// itself), and the solve returns the from-scratch assignment.
func TestBlockCallsWhenEligible(t *testing.T) {
	ws, ts := site(geo.Pt(0.3, 0.6), 30, 3)
	base := &countingModel{base: coop.Synthetic{N: len(ws), Seed: 9}}
	eng, r := planned(4, ws, ts, base)
	s := &within{Solver: assign.NewTPG(), base: base}
	a, err := eng.Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resolved != 1 {
		t.Fatalf("re-solved %d components, want 1", r.Resolved)
	}
	if n := len(ws); base.calls != n*(n-1) || s.calls != 0 {
		t.Fatalf("Solve made %d model calls, %d of them in the solve; want %d, none in the solve", base.calls, s.calls, n*(n-1))
	}
	want, _ := scratchSolve(t, 4, ws, ts, 9)
	if !sameGroups(a, want) {
		t.Fatalf("the block solve assigned %v, from scratch %v", a.TaskWorkers, want.TaskWorkers)
	}
}

// TestBlockCallsWhenIneligible: a sparse chain, where the fill would cost
// more calls than the solve, and a site above the cap get no block: their
// solve makes the same model calls as from scratch, and the same
// assignment.
func TestBlockCallsWhenIneligible(t *testing.T) {
	cases := []struct {
		name string
		b    int
		ws   []model.Worker
		ts   []model.Task
	}{
		{name: "chain", b: 2},
		{name: "above cap", b: 4},
	}
	cases[0].ws, cases[0].ts = chain(40)
	cases[1].ws, cases[1].ts = site(geo.Pt(0.5, 0.5), incremental.BlockCap+1, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := &countingModel{base: coop.Synthetic{N: len(tc.ws), Seed: 4}}
			eng, r := planned(tc.b, tc.ws, tc.ts, base)
			if len(r.Comps) != 1 {
				t.Fatalf("planned %d components, want 1", len(r.Comps))
			}
			s := &within{Solver: assign.NewTPG(), base: base}
			a, err := eng.Solve(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			want, calls := scratchSolve(t, tc.b, tc.ws, tc.ts, 4)
			if base.calls != calls || s.calls != calls {
				t.Fatalf("Solve made %d model calls, %d of them in the solve; from scratch %d", base.calls, s.calls, calls)
			}
			if !sameGroups(a, want) {
				t.Fatalf("the engine assigned %v, from scratch %v", a.TaskWorkers, want.TaskWorkers)
			}
		})
	}
}

// scratchSolve solves ws and ts from scratch with TPG over Synthetic
// qualities of the given seed, and returns the assignment and its model
// calls.
func scratchSolve(t *testing.T, b int, ws []model.Worker, ts []model.Task, seed uint64) (*model.Assignment, int) {
	t.Helper()
	q := &countingModel{base: coop.Synthetic{N: len(ws), Seed: seed}}
	in := &model.Instance{B: b, Workers: ws, Tasks: ts, Quality: q}
	in.BuildCandidates(model.IndexRTree)
	a, err := assign.NewTPG().Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return a, q.calls
}

// sameGroups reports whether a and b hold the same groups in the same
// member order.
func sameGroups(a, b *model.Assignment) bool {
	return slices.EqualFunc(a.TaskWorkers, b.TaskWorkers, slices.Equal[[]int])
}

// TestUpperReadsNoPairOfBlockComponents: Solve sets the q̂ of the workers
// of a component it solves over the dense block from the block, so UPPER
// asks the model only about the other components' workers, and keeps
// assign.Upper's bits. The round holds an eligible 30-worker site and a
// 40-worker chain that gets no block. Without Carry, the next round's
// Plan forgets every q̂: an UPPER with no Solve before it walks both.
func TestUpperReadsNoPairOfBlockComponents(t *testing.T) {
	const b = 2
	ws, ts := site(geo.Pt(0.3, 0.6), 30, 3)
	cw, ct := chain(40)
	for i := range cw {
		cw[i].ID += len(ws)
	}
	for j := range ct {
		ct[j].ID += len(ts)
	}
	// chainCalls is what UPPER asks about the chain's workers alone.
	chainOnly := &countingModel{base: palette(len(cw))}
	_, cr := planned(b, cw, ct, chainOnly)
	assign.Upper(cr.In)
	chainCalls := chainOnly.calls
	if chainCalls == 0 {
		t.Fatal("UPPER over the chain asked the model nothing; the test checks nothing")
	}

	n := len(ws) + len(cw)
	base := &countingModel{base: palette(n)}
	eng, r := planned(b, append(ws, cw...), append(ts, ct...), base)
	if len(r.Comps) != 2 {
		t.Fatalf("planned %d components, want the site and the chain", len(r.Comps))
	}
	upper := func(label string, wantCalls int) {
		t.Helper()
		before := base.calls
		got := eng.Upper()
		if calls := base.calls - before; calls != wantCalls {
			t.Fatalf("%s: UPPER made %d model calls, want %d", label, calls, wantCalls)
		}
		if want := assign.Upper(r.In); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: engine UPPER %v (%#x), assign.Upper %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	a, err := eng.Solve(context.Background(), assign.NewTPG())
	if err != nil {
		t.Fatal(err)
	}
	upper("after Solve", chainCalls)
	upper("again", 0)

	eng.Commit(a, nil, nil)
	eng.BeginRound(1)
	r = eng.Plan()
	r.In.Quality = base
	upper("next round, no Solve", len(ws)*(len(ws)-1)+chainCalls)
}
