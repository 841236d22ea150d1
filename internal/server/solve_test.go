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

// blockCounting is a History-backed model that counts its per-pair and
// its block reads; its QualityBlock is the Subset's, so blocks read the
// history's rows.
type blockCounting struct {
	*coop.Subset
	pairs, blocks atomic.Int64
}

func (m *blockCounting) Quality(i, k int) float64 {
	m.pairs.Add(1)
	return m.Subset.Quality(i, k)
}

func (m *blockCounting) QualityBlock(ids []int, dst []float64) {
	m.blocks.Add(1)
	m.Subset.QualityBlock(ids, dst)
}

// solveRound builds a 400-worker, 50-task round with every task's list
// short enough for a block.
func solveRound() *model.Instance {
	r := rand.New(rand.NewSource(3))
	in := &model.Instance{B: 3, Now: 1}
	for i := 0; i < 400; i++ {
		in.Workers = append(in.Workers, model.Worker{ID: 3*i + 1, Loc: geo.Pt(r.Float64(), r.Float64()), Speed: 0.05, Radius: 0.08 + 0.05*r.Float64()})
	}
	for j := 0; j < 50; j++ {
		in.Tasks = append(in.Tasks, model.Task{ID: j, Loc: geo.Pt(r.Float64(), r.Float64()), Capacity: 5, Deadline: 4})
	}
	in.BuildCandidates(model.IndexGrid)
	return in
}

// TestSolveReadsOnlyBlocks solves a GT+ALL round through the solve that
// NewSolver returns, plain and under a budget. Both must return the
// assignment a solve over the model alone returns; the budgeted solve
// reads the model through the round's memo, which holds each unordered
// pair once, so its reference solves over a memo too. The plain solve
// must call the quality model Σ_t |TaskCand_t|² times, all while filling
// the task blocks and none after, and leave blocks that hold the model's
// bits; the budgeted solve must fill no blocks.
//
// Over a History-backed model, where every task has a block, filling,
// solving, UPPER and scoring the dispatched groups must read the model
// only by one QualityBlock call per task and give the bits the same
// round gives without blocks.
func TestSolveReadsOnlyBlocks(t *testing.T) {
	for _, budget := range []time.Duration{0, time.Minute} {
		in := solveRound()
		m := &countingQuality{base: coop.Synthetic{N: len(in.Workers), Seed: 8}}
		in.Quality = m
		if budget > 0 {
			in.Quality = coop.NewCached(m)
		}

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
		in.Quality = m
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

	in := solveRound()
	h := coop.NewHistory(3*len(in.Workers)+1, 0.5, 0.5)
	r := rand.New(rand.NewSource(4))
	ids := make([]int, len(in.Workers))
	for i, w := range in.Workers {
		ids[i] = w.ID
	}
	for _, c := range in.TaskCand {
		for x := 0; x+3 <= len(c); x += 2 {
			h.RecordGroup([]int{ids[c[x]], ids[c[x+1]], ids[c[x+2]]}, r.Float64())
		}
	}
	in.Quality = coop.NewSubset(h, ids)
	ref, err := assign.ByName("GT+ALL", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	wantUpper, wantScore := assign.Upper(in), dispatchScore(in, want)

	solve, err := NewSolver("GT+ALL", 1, 1, 0, nil, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	m := &blockCounting{Subset: coop.NewSubset(h, ids)}
	in.Quality = m
	a, _, err := solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	upper, score := assign.Upper(in), dispatchScore(in, a)
	blocked := int64(0)
	for tk, c := range in.TaskCand {
		if len(c) > 0 {
			if in.TaskBlock(tk) == nil {
				t.Fatalf("task %d has no block", tk)
			}
			blocked++
		}
	}
	if p, b := m.pairs.Load(), m.blocks.Load(); p != 0 || b != blocked {
		t.Fatalf("fill, solve, UPPER and dispatch made %d pair reads and %d block reads; want 0 and one per task, %d", p, b, blocked)
	}
	for w := range in.Workers {
		if a.WorkerTask[w] != want.WorkerTask[w] {
			t.Fatalf("history: worker %d on task %d, %d without blocks", w, a.WorkerTask[w], want.WorkerTask[w])
		}
	}
	if math.Float64bits(upper) != math.Float64bits(wantUpper) || math.Float64bits(score) != math.Float64bits(wantScore) || score == 0 {
		t.Fatalf("history: UPPER %v and dispatched score %v, %v and %v without blocks", upper, score, wantUpper, wantScore)
	}
}

// dispatchScore sums the dispatched groups' qualities as
// Platform.RunBatch does: the groups that reach B, in task order.
func dispatchScore(in *model.Instance, a *model.Assignment) float64 {
	var s float64
	for tk, ws := range a.TaskWorkers {
		if len(ws) >= in.B {
			s += in.TaskQuality(tk, ws)
		}
	}
	return s
}
