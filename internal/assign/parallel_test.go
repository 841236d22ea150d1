package assign

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/partition"
)

// clusteredInstance builds an instance whose validity graph splits into at
// least `clusters` connected components: workers and tasks live in small
// spatial clusters whose centers sit 0.25 apart on a grid while every
// working area is ≤ 0.1, so no worker reaches another cluster's tasks.
// Positions are interleaved round-robin so components are non-contiguous
// index sets.
func clusteredInstance(r *rand.Rand, clusters, wPer, tPer, b int) *model.Instance {
	cols := 1
	for cols*cols < clusters {
		cols++
	}
	centers := make([]geo.Point, clusters)
	for c := range centers {
		centers[c] = geo.Pt(0.125+0.25*float64(c%cols), 0.125+0.25*float64(c/cols))
	}
	jitter := func(c int) geo.Point {
		return geo.Pt(centers[c].X+(r.Float64()-0.5)*0.08, centers[c].Y+(r.Float64()-0.5)*0.08)
	}
	in := &model.Instance{
		Quality: coop.Synthetic{N: clusters * wPer, Seed: uint64(r.Int63())},
		B:       b,
	}
	for i := 0; i < clusters*wPer; i++ {
		in.Workers = append(in.Workers, model.Worker{
			ID:     i,
			Loc:    jitter(i % clusters),
			Speed:  0.05 + r.Float64()*0.05,
			Radius: 0.09 + r.Float64()*0.01,
		})
	}
	for j := 0; j < clusters*tPer; j++ {
		in.Tasks = append(in.Tasks, model.Task{
			ID:       j,
			Loc:      jitter(j % clusters),
			Capacity: b + r.Intn(2),
			Deadline: 5 + r.Float64()*5,
		})
	}
	in.BuildCandidates(model.IndexRTree)
	return in
}

// TestParallelEquivalence is the decomposition property test: for the
// deterministic solvers, a decomposed solve must match the monolithic one.
// TPG, GT, GT+LUB and EXACT are score-identical (their decisions depend
// only on index order within a component, which SubInstance preserves);
// EXACT additionally matches exactly because the optimum is additive over
// components. MFLOW's maximum is only unique in pair count, and the GT
// epsilon variants stop relative to the *global* potential, so those three
// are held to the guarantees they actually give.
func TestParallelEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	instances := []*model.Instance{
		randomInstance(r, 60, 20, 2),
		randomInstance(r, 80, 30, 3),
		clusteredInstance(r, 6, 10, 4, 2),
	}
	mk := map[string]func() Solver{
		"TPG":    func() Solver { return NewTPG() },
		"GT":     func() Solver { return NewGT(GTOptions{}) },
		"GT+LUB": func() Solver { return NewGT(GTOptions{LUB: true}) },
	}
	for name, make := range mk {
		for ii, in := range instances {
			mono, err := make().Solve(context.Background(), in)
			if err != nil {
				t.Fatalf("%s monolithic: %v", name, err)
			}
			par, err := NewParallel(make(), ParallelOptions{Workers: 4, Seed: 1}).Solve(context.Background(), in)
			if err != nil {
				t.Fatalf("%s parallel: %v", name, err)
			}
			if err := par.Validate(in); err != nil {
				t.Fatalf("%s parallel assignment invalid: %v", name, err)
			}
			if ms, ps := mono.TotalScore(in), par.TotalScore(in); ms != ps {
				t.Errorf("%s instance %d: parallel score %v != monolithic %v", name, ii, ps, ms)
			}
			// Component-by-component: the per-component scores agree too.
			for ci, c := range partition.Components(in) {
				if ms, ps := componentScore(in, mono, c), componentScore(in, par, c); ms != ps {
					t.Errorf("%s instance %d component %d: parallel %v != monolithic %v", name, ii, ci, ps, ms)
				}
			}
		}
	}

	// MFLOW: the max-flow value (pair count) is unique, the assignment not.
	for ii, in := range instances {
		mono, _ := NewMFlow().Solve(context.Background(), in)
		par, err := NewParallel(NewMFlow(), ParallelOptions{Workers: 4}).Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("MFLOW parallel: %v", err)
		}
		if err := par.Validate(in); err != nil {
			t.Fatalf("MFLOW parallel assignment invalid: %v", err)
		}
		if mono.NumAssigned() != par.NumAssigned() {
			t.Errorf("MFLOW instance %d: parallel pairs %d != monolithic %d", ii, par.NumAssigned(), mono.NumAssigned())
		}
	}

	// Epsilon variants only promise a valid assignment (their stop rule is
	// relative to the global potential, which decomposition changes).
	for _, name := range []string{"GT+TSI", "GT+ALL"} {
		for _, in := range instances {
			s, err := ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			a, err := NewParallel(s, ParallelOptions{Workers: 4, Seed: 7}).Solve(context.Background(), in)
			if err != nil {
				t.Fatalf("%s parallel: %v", name, err)
			}
			if err := a.Validate(in); err != nil {
				t.Fatalf("%s parallel assignment invalid: %v", name, err)
			}
		}
	}
}

// componentScore sums the assignment's task scores over one component.
func componentScore(in *model.Instance, a *model.Assignment, c partition.Component) float64 {
	var total float64
	for _, task := range c.Tasks {
		if ws := a.TaskWorkers[task]; len(ws) >= in.B {
			total += in.GroupQuality(ws, in.Tasks[task].Capacity)
		}
	}
	return total
}

// TestParallelExactEquivalence pins the satellite requirement that EXACT
// decomposed equals EXACT monolithic *exactly*: the optimum is additive
// over components and the branch-and-bound is deterministic, so both the
// score and the assignment vector must coincide.
func TestParallelExactEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 3; i++ {
		in := clusteredInstance(r, 4, 5, 2, 2)
		mono, err := (&Exact{}).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewParallel(&Exact{}, ParallelOptions{Workers: 3}).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if err := par.Validate(in); err != nil {
			t.Fatalf("parallel EXACT invalid: %v", err)
		}
		if ms, ps := mono.TotalScore(in), par.TotalScore(in); ms != ps {
			t.Fatalf("instance %d: parallel EXACT score %v != monolithic %v", i, ps, ms)
		}
		for w := range mono.WorkerTask {
			if mono.WorkerTask[w] != par.WorkerTask[w] {
				t.Fatalf("instance %d: worker %d assigned %d vs %d", i, w, par.WorkerTask[w], mono.WorkerTask[w])
			}
		}
	}
}

// TestParallelMatchesMonolithicOnClustered is the acceptance scenario: a
// generated instance with ≥ 8 components where Parallel(TPG) and
// Parallel(GT) score identically to their monolithic runs.
func TestParallelMatchesMonolithicOnClustered(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	in := clusteredInstance(r, 9, 14, 6, 3)
	comps := partition.Components(in)
	if len(comps) < 8 {
		t.Fatalf("only %d components, want ≥ 8", len(comps))
	}
	for name, make := range map[string]func() Solver{
		"TPG": func() Solver { return NewTPG() },
		"GT":  func() Solver { return NewGT(GTOptions{}) },
	} {
		mono, err := make().Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewParallel(make(), ParallelOptions{Workers: 8}).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if ms, ps := mono.TotalScore(in), par.TotalScore(in); ms != ps {
			t.Errorf("%s: parallel score %v != monolithic %v over %d components", name, ps, ms, len(comps))
		}
	}
}

// TestParallelSeedDeterminism: a randomized inner solver must produce the
// same assignment no matter the pool size or scheduling, because component
// seeds derive from the component identity, not the execution order.
func TestParallelSeedDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	in := clusteredInstance(r, 9, 10, 4, 2)
	solve := func(workers int) *model.Assignment {
		a, err := NewParallel(NewRandom(99), ParallelOptions{Workers: workers, Seed: 42}).
			Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := solve(1)
	for _, workers := range []int{2, 4, 8} {
		got := solve(workers)
		for w := range want.WorkerTask {
			if want.WorkerTask[w] != got.WorkerTask[w] {
				t.Fatalf("workers=%d: worker %d assigned %d, want %d (pool size changed the result)",
					workers, w, got.WorkerTask[w], want.WorkerTask[w])
			}
		}
	}
	// And the derivation itself is pure.
	if ComponentSeed(42, 3) != ComponentSeed(42, 3) || ComponentSeed(42, 3) == ComponentSeed(42, 4) {
		t.Fatal("ComponentSeed not a pure injective-ish derivation")
	}
}

// TestParallelCancellationMidFanout mirrors cancel_test.go: a countdown
// context trips mid-fan-out; the merged result must still be a valid
// (partial) assignment and the decorator must not keep solving components
// long past the trip.
func TestParallelCancellationMidFanout(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	in := clusteredInstance(r, 16, 12, 5, 2)
	const budget = 25
	cc := &countdownCtx{Context: context.Background(), budget: budget}
	p := NewParallel(NewTPG(), ParallelOptions{Workers: 2})
	a, err := p.Solve(cc, in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := a.Validate(in); err != nil {
		t.Fatalf("partial assignment invalid: %v", err)
	}
	if calls := cc.calls.Load(); calls <= budget {
		t.Fatalf("only %d ctx polls; instance too small to trip the %d budget", calls, budget)
	}
	// Cancellation before the fan-out even starts: empty but valid.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	a, err = p.Solve(done, in)
	if err != nil {
		t.Fatalf("pre-cancelled Solve: %v", err)
	}
	if got := a.NumAssigned(); got != 0 {
		t.Fatalf("pre-cancelled solve assigned %d pairs", got)
	}
}

// TestParallelNonForkableSerialized covers the fallback path: an inner
// solver without Fork is serialized behind the decorator's mutex, still
// benefits from the decomposition, and matches its monolithic score
// (LocalSearch only ever applies intra-component swaps — a cross-component
// swap is never valid).
func TestParallelNonForkableSerialized(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	in := clusteredInstance(r, 6, 8, 3, 2)
	ls := NewLocalSearch(NewTPG())
	if _, ok := interface{}(ls).(Forker); ok {
		t.Fatal("test premise broken: LocalSearch grew a Fork; pick another non-forkable solver")
	}
	mono, err := NewLocalSearch(NewTPG()).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParallel(ls, ParallelOptions{Workers: 4}).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Validate(in); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if ms, ps := mono.TotalScore(in), par.TotalScore(in); ms != ps {
		t.Errorf("serialized fallback score %v != monolithic %v", ps, ms)
	}
}

// TestParallelMetrics checks the decorator's registry wiring: component
// count gauge, size histogram and latency histogram, labeled with the
// (transparent) solver name, both set directly and via Instrument.
func TestParallelMetrics(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	in := clusteredInstance(r, 9, 8, 3, 2)
	nComps := len(partition.Components(in))

	reg := metrics.NewRegistry()
	p := NewParallel(NewTPG(), ParallelOptions{Workers: 4})
	s := Instrument(p, reg)
	if s.Name() != "TPG" {
		t.Fatalf("Name = %q, want transparent %q", s.Name(), "TPG")
	}
	if _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	lbl := metrics.L("solver", "TPG")
	if v, ok := snap.Gauge(MetricParallelComponents, lbl); !ok || v != float64(nComps) {
		t.Errorf("%s = %v (ok=%v), want %d", MetricParallelComponents, v, ok, nComps)
	}
	for _, name := range []string{MetricParallelComponentSize, MetricParallelComponentSeconds} {
		h, ok := snap.Histogram(name, lbl)
		if !ok || h.Count != uint64(nComps) {
			t.Errorf("%s count = %d (ok=%v), want %d", name, h.Count, ok, nComps)
		}
	}
	// The wrapper's own solve counter still accrues under the same name.
	if v, _ := snap.Counter(MetricSolves, lbl); v != 1 {
		t.Errorf("%s = %d, want 1", MetricSolves, v)
	}
}

// TestParallelRace exercises concurrent Solve calls on one decorator plus a
// goroutine hammering the shared registry; run under -race in CI.
func TestParallelRace(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	in := clusteredInstance(r, 9, 8, 3, 2)
	reg := metrics.NewRegistry()
	p := NewParallel(NewGT(GTOptions{LUB: true}), ParallelOptions{Workers: 4, Metrics: reg})

	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.WriteText(io.Discard)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := p.Solve(context.Background(), in)
			if err != nil {
				t.Errorf("Solve: %v", err)
				return
			}
			if err := a.Validate(in); err != nil {
				t.Errorf("invalid: %v", err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	hammer.Wait()
}

// TestParallelClippedComponentNeverHalfMerged is the regression test for
// the clipped-merge audit: when cancellation lands while a component is
// being solved, that component's possibly-cut partial must be dropped, so
// in the merged result every component is either bitwise-identical to its
// clean solve or entirely unassigned — never a half-solved component
// presented as complete.
func TestParallelClippedComponentNeverHalfMerged(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	in := clusteredInstance(r, 16, 12, 5, 2)
	comps := partition.Components(in)
	if len(comps) < 8 {
		t.Fatalf("only %d components; instance not clustered enough", len(comps))
	}

	// Reference: the clean (uncancelled) decomposed solve. Workers: 1 so
	// countdown budgets below map deterministically onto component order.
	ref, err := NewParallel(NewTPG(), ParallelOptions{Workers: 1}).Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	sawClip := false
	for budget := int64(5); budget <= 120; budget += 5 {
		cc := &countdownCtx{Context: context.Background(), budget: budget}
		reg := metrics.NewRegistry()
		p := NewParallel(NewTPG(), ParallelOptions{Workers: 1, Metrics: reg})
		a, err := p.Solve(cc, in)
		if err != nil {
			t.Fatalf("budget=%d: Solve: %v", budget, err)
		}
		if err := a.Validate(in); err != nil {
			t.Fatalf("budget=%d: invalid merge: %v", budget, err)
		}
		clips := reg.Counter(MetricParallelClipped, "", metrics.L("solver", "TPG")).Value()
		if clips > 0 {
			sawClip = true
		}
		for _, c := range comps {
			full, empty := true, true
			for _, w := range c.Workers {
				if a.WorkerTask[w] != ref.WorkerTask[w] {
					full = false
				}
				if a.WorkerTask[w] != model.Unassigned {
					empty = false
				}
			}
			if !full && !empty {
				t.Fatalf("budget=%d: component key=%d half-merged: neither clean nor empty (clipped=%d)",
					budget, c.Key(), clips)
			}
		}
	}
	if !sawClip {
		t.Error("no budget in the sweep clipped a component; regression not exercised")
	}
}

// TestInstrumentKeepsForkAndArena pins the method set Instrument exposes:
// exactly the inner solver's Forker-ness, with ArenaHolder alongside it,
// and forks that stay instrumented and take the arena they are handed.
func TestInstrumentKeepsForkAndArena(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, ok := Instrument(NewLocalSearch(NewTPG()), reg).(Forker); ok {
		t.Fatal("instrumented LocalSearch claims to fork; Parallel would skip its mutex")
	}
	s := Instrument(NewGT(GTOptions{LUB: true}), reg)
	f, ok := s.(Forker)
	if !ok {
		t.Fatal("instrumented GT hides Fork")
	}
	if _, ok := s.(ArenaHolder); !ok {
		t.Fatal("instrumented GT hides SetArena")
	}
	fork := f.Fork(7)
	h, ok := fork.(ArenaHolder)
	if !ok {
		t.Fatal("fork of instrumented GT hides SetArena")
	}
	ar := NewArena()
	h.SetArena(ar)
	r := rand.New(rand.NewSource(44))
	in := randomInstance(r, 40, 12, 3)
	if _, err := fork.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if !ar.used {
		t.Fatal("fork did not solve on the arena it was handed")
	}
	if n, _ := reg.Snapshot().Counter(MetricSolves, metrics.L("solver", "GT+LUB")); n != 1 {
		t.Fatalf("fork recorded %v solves, want 1", n)
	}
}
