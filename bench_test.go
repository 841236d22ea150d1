// Benchmarks regenerating every figure of the paper's evaluation (§VI) plus
// the ablation benches called out in DESIGN.md §4. Each figure bench runs
// its full parameter sweep once per iteration at a reduced scale (the
// paper-scale runs are the casc-bench CLI's job; these keep `go test
// -bench=.` in CI territory). Shapes — who wins, by roughly what factor —
// are asserted in the test suite; the benches report the costs.
package casc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/harness"
	"casc/internal/model"
)

// benchScale keeps one full figure sweep around a second.
const benchScale = 0.12

func benchFigure(b *testing.B, name string) {
	b.Helper()
	ctx := context.Background()
	opt := harness.Options{Rounds: 1, Seed: 1, Scale: benchScale}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := harness.Run(ctx, name, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Points) == 0 {
			b.Fatal("no sweep points")
		}
	}
}

// BenchmarkFig2Capacity regenerates Figure 2 (effect of capacity a_j).
func BenchmarkFig2Capacity(b *testing.B) { benchFigure(b, harness.ExpCapacity) }

// BenchmarkFig3Speed regenerates Figure 3 (effect of worker speeds).
func BenchmarkFig3Speed(b *testing.B) { benchFigure(b, harness.ExpSpeed) }

// BenchmarkFig4Radius regenerates Figure 4 (effect of working areas).
func BenchmarkFig4Radius(b *testing.B) { benchFigure(b, harness.ExpRadius) }

// BenchmarkFig5Deadline regenerates Figure 5 (effect of remaining time τ_j).
func BenchmarkFig5Deadline(b *testing.B) { benchFigure(b, harness.ExpDeadline) }

// BenchmarkFig6Epsilon regenerates Figure 6 (effect of the TSI threshold ε).
func BenchmarkFig6Epsilon(b *testing.B) { benchFigure(b, harness.ExpEpsilon) }

// BenchmarkFig7Workers regenerates Figure 7 (scalability in m).
func BenchmarkFig7Workers(b *testing.B) { benchFigure(b, harness.ExpWorkers) }

// BenchmarkFig8Tasks regenerates Figure 8 (scalability in n).
func BenchmarkFig8Tasks(b *testing.B) { benchFigure(b, harness.ExpTasks) }

// benchInstance is one solver-bench batch: 300 workers, 120 tasks at
// otherwise Table II defaults.
func benchInstance(b *testing.B, kind IndexKind) *Instance {
	b.Helper()
	p := DefaultWorkload()
	p.NumWorkers, p.NumTasks = 300, 120
	in, err := p.Instance(0, kind)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkSolver times one batch assignment per approach.
func BenchmarkSolver(b *testing.B) {
	in := benchInstance(b, IndexRTree)
	ctx := context.Background()
	for _, name := range AllSolverNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := SolverByName(name, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpper times the Equation 9 bound.
func BenchmarkUpper(b *testing.B) {
	in := benchInstance(b, IndexRTree)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Upper(in)
	}
}

// BenchmarkAblationSpatialIndex compares candidate construction across the
// three spatial indexes (DESIGN.md §4.6).
func BenchmarkAblationSpatialIndex(b *testing.B) {
	p := DefaultWorkload()
	p.NumWorkers, p.NumTasks = 1000, 500
	base, err := p.Instance(0, IndexLinear)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []IndexKind{IndexRTree, IndexGrid, IndexLinear} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := *base
				in.BuildCandidates(kind)
			}
		})
	}
}

// BenchmarkAblationQualityModel compares GT's cost under the dense-matrix,
// hash-synthetic and Jaccard quality models (DESIGN.md §4.1), and under an
// Equation 1 history read the way the HTTP tier reads it: "history" is the
// bare Subset view of the platform's history, "cached-history" wraps that
// view in a fresh Cached per solve, as server.Platform.RunBatch does.
func BenchmarkAblationQualityModel(b *testing.B) {
	p := DefaultWorkload()
	p.NumWorkers, p.NumTasks = 300, 120
	base, err := p.Instance(0, IndexRTree)
	if err != nil {
		b.Fatal(err)
	}
	n := len(base.Workers)

	matrix := NewQualityMatrix(n)
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			matrix.Set(i, k, base.Quality.Quality(i, k))
		}
	}
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i % 40, 40 + i%25, 65 + i%11}
		// Jaccard needs sorted unique lists; the construction above is both.
	}
	// The platform's history spans every registered worker (here 2n, with
	// the instance's workers at the even IDs); a tenth of the pairs carry
	// one to three ratings.
	hist := NewQualityHistory(2*n, 0.5, 0.5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2*n; i++ {
		for k := i + 1; k < 2*n; k++ {
			if rng.Float64() < 0.1 {
				for r := rng.Intn(3); r >= 0; r-- {
					hist.Record(i, k, rng.Float64())
				}
			}
		}
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 2 * i
	}
	fixed := func(q QualityModel) func() QualityModel { return func() QualityModel { return q } }
	models := []struct {
		name string
		q    func() QualityModel // called once per solve
	}{
		{"synthetic", fixed(base.Quality)},
		{"matrix", fixed(matrix)},
		{"jaccard", fixed(NewQualityJaccard(groups))},
		{"history", fixed(model.NewSubset(hist, ids))},
		{"cached-history", func() QualityModel { return coop.NewCached(model.NewSubset(hist, ids)) }},
	}
	ctx := context.Background()
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			in := *base
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.Quality = m.q()
				if _, err := NewGT(GTOptions{}).Solve(ctx, &in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSeeding compares TPG's exhaustive pair seeding against
// the truncated-affinity fallback (DESIGN.md §4.2).
func BenchmarkAblationSeeding(b *testing.B) {
	p := DefaultWorkload()
	p.NumWorkers, p.NumTasks = 800, 100
	p.RadiusRange = [2]float64{0.15, 0.20} // dense candidate pools
	in, err := p.Instance(0, IndexRTree)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, limit := range []int{16, 64, assign.DefaultSeedLimit} {
		b.Run(fmt.Sprintf("seedLimit=%d", limit), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := &assign.TPG{SeedLimit: limit}
				if _, err := s.Solve(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGTInit compares GT initialized from TPG (Algorithm 3
// line 1) against a cold random start (DESIGN.md §4; the paper's complexity
// analysis mentions the random variant).
func BenchmarkAblationGTInit(b *testing.B) {
	in := benchInstance(b, IndexRTree)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts GTOptions
	}{
		{"tpg-init", GTOptions{}},
		{"random-init", GTOptions{RandomInit: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewGT(tc.opts).Solve(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLUBTSI isolates the two GT optimizations of §V-D.
func BenchmarkAblationLUBTSI(b *testing.B) {
	in := benchInstance(b, IndexRTree)
	ctx := context.Background()
	for _, name := range []string{"GT", "GT+LUB", "GT+TSI", "GT+ALL"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := SolverByName(name, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchSimulation times the Algorithm 1 simulator end to end.
func BenchmarkBatchSimulation(b *testing.B) {
	p := DefaultWorkload()
	p.NumWorkers, p.NumTasks = 100, 30
	src := &GeneratorSource{
		Model:     QualitySynthetic{N: 100 * 6, Seed: 3},
		WorkersFn: func(round int) []Worker { return p.WithSeed(int64(round)).Workers(float64(round)) },
		TasksFn:   func(round int) []Task { return p.WithSeed(int64(round) + 77).Tasks(float64(round)) },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(context.Background(), BatchConfig{Solver: NewTPG(), Rounds: 5, B: 3}, src); err != nil {
			b.Fatal(err)
		}
	}
}

// The model package's quality arithmetic is on the hot path of every
// solver; keep its costs visible.
func BenchmarkGroupQuality(b *testing.B) {
	in := benchInstance(b, IndexLinear)
	g := in.NewGroupScore(5)
	for _, w := range []int{1, 2, 3, 4} {
		g.Join(w)
	}
	b.Run("JoinDelta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.JoinDelta(10)
		}
	})
	b.Run("GroupQuality5", func(b *testing.B) {
		ws := []int{1, 2, 3, 4, 10}
		for i := 0; i < b.N; i++ {
			in.GroupQuality(ws, 5)
		}
	})
}

// BenchmarkAblationGainPriority compares index-order best-response
// scheduling against gain-priority scheduling (engine-level ablation; both
// converge to equilibria of equal quality, see the game package tests).
func BenchmarkAblationGainPriority(b *testing.B) {
	in := benchInstance(b, IndexRTree)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts GTOptions
	}{
		{"index-order", GTOptions{RandomInit: true}},
		{"gain-priority", GTOptions{RandomInit: true, GainPriority: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewGT(tc.opts).Solve(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
