package shard

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"casc/internal/coop"
	"casc/internal/geo"
)

// historyCounting counts the per-pair and the block reads that reach a
// cluster's history; shards read it concurrently.
type historyCounting struct {
	h             *coop.History
	pairs, blocks atomic.Int64
}

func (m *historyCounting) Quality(i, k int) float64 {
	m.pairs.Add(1)
	return m.h.Quality(i, k)
}

func (m *historyCounting) QualityBlock(ids []int, dst []float64) {
	m.blocks.Add(1)
	m.h.QualityBlock(ids, dst)
}

func (m *historyCounting) NumWorkers() int { return m.h.NumWorkers() }

// TestClusterRoundReadsOnlyBlocks: an unbudgeted K=4 round over a rated
// history, in which every task has a block, reads the history only by one
// QualityBlock call per task — the round's one fill — and not at all in
// the shard solves, UPPER or dispatch. It dispatches what a round under a
// generous budget, which fills no blocks, dispatches, with the same bits.
func TestClusterRoundReadsOnlyBlocks(t *testing.T) {
	const k, b = 4, 3
	round := func(budget time.Duration) (*Cluster, *historyCounting, *BatchResult, int) {
		c, err := NewCluster(Config{K: k, B: b, SolveBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		// Tight sites of six workers over the square, two tasks at each:
		// every task's list is short, and the sites fall in several
		// shards' regions.
		r := rand.New(rand.NewSource(5))
		tasks := 0
		for s := 0; s < 24; s++ {
			x, y := 0.05+0.9*r.Float64(), 0.05+0.9*r.Float64()
			var site []int
			for i := 0; i < 6; i++ {
				id, err := c.RegisterWorker(geo.Pt(x+0.01*r.Float64(), y+0.01*r.Float64()), 0.05, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				site = append(site, id)
			}
			c.history.RecordGroup(site[:3], r.Float64())
			for j := 0; j < 2; j++ {
				if _, err := c.PostTask(geo.Pt(x+0.005, y+0.005), b+1, 5); err != nil {
					t.Fatal(err)
				}
				tasks++
			}
		}
		m := &historyCounting{h: c.history}
		c.quality = m
		res, err := c.RunBatch(context.Background(), "GT+ALL")
		if err != nil {
			t.Fatal(err)
		}
		return c, m, res, tasks
	}

	c, m, res, tasks := round(0)
	solved := 0
	for _, sh := range c.shards {
		if sh.sm.solves.Value() > 0 {
			solved++
		}
	}
	if solved < 2 || res.DispatchedTasks == 0 {
		t.Fatalf("%d shards solved and %d tasks dispatched; the test checks nothing", solved, res.DispatchedTasks)
	}
	if p, bl := m.pairs.Load(), m.blocks.Load(); p != 0 || bl != int64(tasks) {
		t.Fatalf("fill, shard solves, UPPER and dispatch made %d pair reads and %d block reads; want 0 and one per task, %d", p, bl, tasks)
	}

	_, m, want, _ := round(time.Minute)
	if m.blocks.Load() != 0 {
		t.Fatal("the budgeted round filled blocks")
	}
	if !reflect.DeepEqual(res.Pairs, want.Pairs) ||
		math.Float64bits(res.Score) != math.Float64bits(want.Score) ||
		math.Float64bits(res.Upper) != math.Float64bits(want.Upper) {
		t.Fatalf("with blocks: pairs %v, score %v, UPPER %v; without: %v, %v, %v",
			res.Pairs, res.Score, res.Upper, want.Pairs, want.Score, want.Upper)
	}
}
