package assign

import (
	"context"
	"math/rand"
	"testing"

	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
	"casc/internal/stats"
)

// countedQuality counts the calls that reach base.
type countedQuality struct {
	base  model.QualityModel
	calls int
}

func (c *countedQuality) Quality(i, k int) float64 {
	c.calls++
	return c.base.Quality(i, k)
}

func (c *countedQuality) NumWorkers() int { return c.base.NumWorkers() }

// BenchmarkUpper computes one round's UPPER at stream-scratch's shape
// (2 550 workers × 125 tasks, every pair read from the model, ≈ 144 k
// distinct ordered co-candidate pairs) and at serve-http's (1 280 × 154,
// over the task blocks FillBlocks sets). Workers are drawn with Table II's
// speeds and radii, tasks hold 5 seats and are due τ = 3 after the round, B = 3. It reports the model calls
// per UPPER and the entries of the blocks it reads, counts that repeat
// exactly for a given tree.
func BenchmarkUpper(b *testing.B) {
	for _, shape := range []struct {
		name   string
		nW, nT int
		blocks bool
	}{
		{"stream-scratch", 2550, 125, false},
		{"serve-http", 1280, 154, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			in := &model.Instance{B: 3, Now: 1}
			for i := 0; i < shape.nW; i++ {
				in.Workers = append(in.Workers, model.Worker{
					ID:     i,
					Loc:    geo.Pt(r.Float64(), r.Float64()),
					Speed:  stats.TruncGaussian(r, 0.01, 0.05, stats.PaperSigma),
					Radius: stats.TruncGaussian(r, 0.05, 0.10, stats.PaperSigma),
				})
			}
			for j := 0; j < shape.nT; j++ {
				in.Tasks = append(in.Tasks, model.Task{
					ID: j, Loc: geo.Pt(r.Float64(), r.Float64()), Capacity: 5, Deadline: in.Now + 3,
				})
			}
			in.BuildCandidates(model.IndexGrid)
			q := &countedQuality{base: coop.Synthetic{N: shape.nW, Seed: 9}}
			in.Quality = q
			entries := 0
			if shape.blocks {
				in.FillBlocks(context.Background())
				for t := range in.Tasks {
					entries += len(in.TaskBlock(t))
				}
			}
			q.calls = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Upper(in)
			}
			b.StopTimer()
			b.ReportMetric(float64(q.calls)/float64(b.N), "model_calls/op")
			b.ReportMetric(float64(entries), "block_entries/op")
		})
	}
}
