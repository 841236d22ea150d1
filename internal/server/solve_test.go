package server

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/model"
)

// countingQuality is an asymmetric model that counts its calls, the
// diagonal's included; the ladder may solve on another goroutine.
type countingQuality struct {
	base  coop.Synthetic
	calls atomic.Int64
}

func (m *countingQuality) Quality(i, k int) float64 {
	m.calls.Add(1)
	return m.base.Quality(i, k) - 0.001*float64(i%7) + 0.002*float64(k%5)
}
func (m *countingQuality) NumWorkers() int { return m.base.N }

// TestSolveReadsOnlyBlocks solves a GT+ALL round through the solve that
// NewSolver returns, plain and under a budget. Both must return the
// assignment a solve over the model alone returns. The plain solve must
// call the quality model Σ_t |TaskCand_t|² times, all while filling the
// task blocks and none after, and leave blocks that hold the model's
// bits; the budgeted solve must fill no blocks.
func TestSolveReadsOnlyBlocks(t *testing.T) {
	for _, budget := range []time.Duration{0, time.Minute} {
		r := rand.New(rand.NewSource(3))
		in := &model.Instance{B: 3, Now: 1}
		for i := 0; i < 400; i++ {
			in.Workers = append(in.Workers, model.Worker{ID: i, Loc: geo.Pt(r.Float64(), r.Float64()), Speed: 0.05, Radius: 0.08 + 0.05*r.Float64()})
		}
		for j := 0; j < 50; j++ {
			in.Tasks = append(in.Tasks, model.Task{ID: j, Loc: geo.Pt(r.Float64(), r.Float64()), Capacity: 5, Deadline: 4})
		}
		in.BuildCandidates(model.IndexGrid)
		m := &countingQuality{base: coop.Synthetic{N: len(in.Workers), Seed: 8}}
		in.Quality = m

		ref, err := assign.ByName("GT+ALL", 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		wantScore := want.TotalScore(in)

		solve, err := NewSolver("GT+ALL", 1, 1, budget, nil, metrics.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		m.calls.Store(0)
		a, exhausted, err := solve(context.Background(), in)
		if err != nil || exhausted {
			t.Fatalf("budget %v: solve failed (exhausted %v): %v", budget, exhausted, err)
		}
		for w := range in.Workers {
			if a.WorkerTask[w] != want.WorkerTask[w] {
				t.Fatalf("budget %v: worker %d on task %d, %d over the model", budget, w, a.WorkerTask[w], want.WorkerTask[w])
			}
		}
		if got := a.TotalScore(in); math.Float64bits(got) != math.Float64bits(wantScore) || a.CompletedTasks(in) == 0 {
			t.Fatalf("budget %v: score %v, %v over the model (%d tasks complete)", budget, got, wantScore, a.CompletedTasks(in))
		}
		if budget > 0 {
			if in.Blocks != nil {
				t.Fatal("the budgeted solve filled blocks")
			}
			continue
		}
		fill := int64(0)
		for _, c := range in.TaskCand {
			fill += int64(len(c) * len(c))
		}
		if got := m.calls.Load(); got != fill {
			t.Fatalf("the solve made %d quality calls; filling the blocks takes Σ|TaskCand_t|² = %d", got, fill)
		}
		if in.Blocks == nil {
			t.Fatal("the solve left no blocks")
		}
		for tk, c := range in.TaskCand {
			q, n := in.TaskBlock(tk), len(c)
			for a, x := range c {
				for b, y := range c {
					if math.Float64bits(q[a*n+b]) != math.Float64bits(m.Quality(x, y)) {
						t.Fatalf("task %d: block entry (%d, %d) is not the model's", tk, x, y)
					}
				}
			}
		}
	}
}
