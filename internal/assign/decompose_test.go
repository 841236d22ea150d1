package assign

import (
	"context"
	"math/rand"
	"testing"

	"casc/internal/coop"
	"casc/internal/geo"
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

// solveDecomposed solves every connected component of in on its own, the
// way the incremental engine and the shard cluster do: the component's
// SubInstance goes to a fork seeded by ComponentSeed (or to s itself when
// it cannot fork), and the result is lifted back into one assignment over
// in.
func solveDecomposed(t *testing.T, s Solver, in *model.Instance, seed int64) *model.Assignment {
	t.Helper()
	merged := model.NewAssignment(in)
	for _, c := range partition.Components(in) {
		sub, m := in.SubInstance(c.Workers, c.Tasks)
		cs := s
		if f, ok := s.(Forker); ok {
			cs = f.Fork(ComponentSeed(seed, c.Key()))
		}
		a, err := cs.Solve(context.Background(), sub)
		if err != nil {
			t.Fatalf("%s component key=%d: %v", s.Name(), c.Key(), err)
		}
		m.Lift(a, merged)
	}
	return merged
}

// decompositionCase is one solver and the promise its decomposed solve
// keeps against its monolithic solve.
type decompositionCase struct {
	name  string
	mk    func() Solver
	check string // score | vector | pairs | valid
}

// checkDecomposition pins the contract the incremental engine and the
// shard cluster rely on: solving each component separately and lifting the
// results is as good as the monolithic solve. What "as good" means depends
// on the solver:
//   - score: TPG, GT and GT+LUB decide only by index order within a
//     component, which SubInstance preserves, so the merged score equals
//     the monolithic one bit for bit, in total and per component;
//   - vector: EXACT's optimum is additive over components and its search
//     deterministic, so the assignment vectors coincide;
//   - pairs: MFLOW's maximum is unique only in pair count;
//   - valid: the epsilon variants GT+TSI and GT+ALL stop relative to the
//     global potential, which decomposition changes, so they only promise
//     a valid assignment.
func checkDecomposition(t *testing.T, cases []decompositionCase, instances []*model.Instance) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for ii, in := range instances {
				mono, err := tc.mk().Solve(context.Background(), in)
				if err != nil {
					t.Fatalf("instance %d monolithic: %v", ii, err)
				}
				dec := solveDecomposed(t, tc.mk(), in, 1)
				if err := dec.Validate(in); err != nil {
					t.Fatalf("instance %d: decomposed assignment invalid: %v", ii, err)
				}
				switch tc.check {
				case "score":
					if ms, ds := mono.TotalScore(in), dec.TotalScore(in); ms != ds {
						t.Errorf("instance %d: decomposed score %v != monolithic %v", ii, ds, ms)
					}
					for ci, c := range partition.Components(in) {
						if ms, ds := componentScore(in, mono, c), componentScore(in, dec, c); ms != ds {
							t.Errorf("instance %d component %d: decomposed %v != monolithic %v", ii, ci, ds, ms)
						}
					}
				case "vector":
					for w := range mono.WorkerTask {
						if mono.WorkerTask[w] != dec.WorkerTask[w] {
							t.Fatalf("instance %d: worker %d assigned %d vs %d", ii, w, dec.WorkerTask[w], mono.WorkerTask[w])
						}
					}
				case "pairs":
					if mono.NumAssigned() != dec.NumAssigned() {
						t.Errorf("instance %d: decomposed pairs %d != monolithic %d", ii, dec.NumAssigned(), mono.NumAssigned())
					}
				}
			}
		})
	}
}

// TestParallelEquivalence holds every polynomial solver to its
// decomposition promise (see checkDecomposition) on random and clustered
// instances.
func TestParallelEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	instances := []*model.Instance{
		randomInstance(r, 60, 20, 2),
		randomInstance(r, 80, 30, 3),
		clusteredInstance(r, 6, 10, 4, 2),
		clusteredInstance(r, 9, 14, 6, 3),
	}
	checkDecomposition(t, []decompositionCase{
		{"TPG", func() Solver { return NewTPG() }, "score"},
		{"GT", func() Solver { return NewGT(GTOptions{}) }, "score"},
		{"GT+LUB", func() Solver { return NewGT(GTOptions{LUB: true}) }, "score"},
		{"MFLOW", func() Solver { return NewMFlow() }, "pairs"},
		{"GT+TSI", func() Solver { return NewGT(GTOptions{Epsilon: DefaultEpsilon}) }, "valid"},
		{"GT+ALL", func() Solver { return NewGT(GTOptions{LUB: true, Epsilon: DefaultEpsilon}) }, "valid"},
	}, instances)
}

// TestParallelExactEquivalence: EXACT decomposed equals EXACT monolithic
// exactly, assignment vector and all. EXACT is exponential in the largest
// component, so it gets small clustered instances.
func TestParallelExactEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	var instances []*model.Instance
	for i := 0; i < 3; i++ {
		instances = append(instances, clusteredInstance(r, 4, 5, 2, 2))
	}
	checkDecomposition(t, []decompositionCase{
		{"EXACT", func() Solver { return &Exact{} }, "vector"},
	}, instances)
}

// TestParallelMatchesMonolithicOnClustered is the acceptance scenario: on a
// generated instance with ≥ 8 components, TPG and GT solved component by
// component score identically to their monolithic runs.
func TestParallelMatchesMonolithicOnClustered(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	in := clusteredInstance(r, 9, 14, 6, 3)
	if n := len(partition.Components(in)); n < 8 {
		t.Fatalf("only %d components, want ≥ 8", n)
	}
	checkDecomposition(t, []decompositionCase{
		{"TPG", func() Solver { return NewTPG() }, "score"},
		{"GT", func() Solver { return NewGT(GTOptions{}) }, "score"},
	}, []*model.Instance{in})
}
