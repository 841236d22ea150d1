package model

import (
	"context"
	"math"
	"testing"

	"casc/internal/coop"
)

// TestFillBlocks checks that every block entry reads back the model's
// bits for its ordered pair, diagonal included, that the fill asks the
// model Σ_t |TaskCand_t|² times, and that each worker's recorded position
// is its place in its tasks' lists.
func TestFillBlocks(t *testing.T) {
	in := paperInstance(11, 400, 60)
	in.BuildCandidates(IndexGrid)
	vals := []float64{0.5, math.NaN(), 0, math.Copysign(0, -1), 5e-324, -0.25, 1.0 / 3}
	m := &countingModel{n: len(in.Workers), f: func(i, k int) float64 { return vals[(7*i+3*k+i*k)%len(vals)] }}
	in.Quality = m
	in.FillBlocks(context.Background())
	calls := m.calls
	want := 0
	for _, c := range in.TaskCand {
		want += len(c) * len(c)
	}
	if calls != want || want == 0 {
		t.Fatalf("FillBlocks made %d quality calls, want Σ|TaskCand_t|² = %d", calls, want)
	}
	for tk, c := range in.TaskCand {
		q, n := in.TaskBlock(tk), len(c)
		for a, x := range c {
			for b, y := range c {
				if got, want := math.Float64bits(q[a*n+b]), math.Float64bits(in.Quality.Quality(x, y)); got != want {
					t.Fatalf("task %d: block (%d,%d) holds %x, the model gives %x", tk, x, y, got, want)
				}
			}
		}
	}
	for w, ts := range in.WorkerCand {
		for k, tk := range ts {
			p := in.CandPos(w, k)
			if in.TaskCand[tk][p] != w {
				t.Fatalf("worker %d: position %d in task %d's list holds worker %d", w, p, tk, in.TaskCand[tk][p])
			}
			row := in.BlockRow(w, k)
			for b, y := range in.TaskCand[tk] {
				if math.Float64bits(row[b]) != math.Float64bits(in.Quality.Quality(w, y)) {
					t.Fatalf("worker %d, task %d: row entry %d is not q(%d, %d)", w, tk, b, w, y)
				}
			}
		}
	}
	in.Blocks = nil
	if in.CandPos(0, 0) != -1 || in.BlockRow(0, 0) != nil {
		t.Fatal("an instance without blocks still reads them")
	}
}

// TestFillBlocksDenseRound fills blocks for rounds whose workers are all
// candidates of every task. The blocks must fit the room of
// 2·min(CoCandidatePairs, N(N−1)/2) + |valid pairs| entries, leave lists
// longer than MaxBlockSide without one, and ask the model once per entry.
// A fill whose context is done sets no blocks.
func TestFillBlocksDenseRound(t *testing.T) {
	const nT = 40
	for _, tc := range []struct{ nW, blocks int }{{300, 1}, {MaxBlockSide + 1, 0}} {
		in := paperInstance(13, tc.nW, nT)
		for i := range in.Workers {
			in.Workers[i].Radius, in.Workers[i].Speed = 2, 10
		}
		in.BuildCandidates(IndexGrid)
		if in.NumValidPairs() != tc.nW*nT {
			t.Fatalf("%d workers: %d valid pairs, want every pair", tc.nW, in.NumValidPairs())
		}
		base := coop.Synthetic{N: tc.nW, Seed: 5}
		m := &countingModel{n: tc.nW, f: base.Quality}
		in.Quality = m
		in.FillBlocks(context.Background())
		room := tc.nW*(tc.nW-1) + in.NumValidPairs()
		if n := len(in.Blocks.q); n > room || m.calls != n {
			t.Fatalf("%d workers: blocks hold %d entries from %d model calls; the room is %d", tc.nW, n, m.calls, room)
		}
		blocks := 0
		for tk := range in.Tasks {
			if in.TaskBlock(tk) != nil {
				blocks++
			}
		}
		if blocks != tc.blocks {
			t.Fatalf("%d workers: %d tasks have a block, want %d", tc.nW, blocks, tc.blocks)
		}
	}

	in := paperInstance(14, 200, 30)
	in.BuildCandidates(IndexGrid)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in.FillBlocks(ctx)
	if in.Blocks != nil {
		t.Fatal("a fill whose context was done set blocks")
	}
}

// TestTotalScoreReadsBlocks checks that TotalScore makes no quality call
// over an instance with blocks, and returns the bits it returns without.
func TestTotalScoreReadsBlocks(t *testing.T) {
	in := paperInstance(12, 300, 40)
	in.BuildCandidates(IndexGrid)
	base := coop.Synthetic{N: len(in.Workers), Seed: 3}
	m := &countingModel{n: len(in.Workers), f: func(i, k int) float64 { return base.Quality(i, k) - 0.3 }}
	in.Quality = m
	a := NewAssignment(in)
	for tk, c := range in.TaskCand {
		for _, w := range c {
			if a.TaskOf(w) == Unassigned && len(a.TaskWorkers[tk]) < in.Tasks[tk].Capacity {
				a.Assign(w, tk)
			}
		}
	}
	want := a.TotalScore(in)
	in.FillBlocks(context.Background())
	m.calls = 0
	got := a.TotalScore(in)
	if m.calls != 0 {
		t.Fatalf("TotalScore made %d quality calls over blocks", m.calls)
	}
	if math.Float64bits(got) != math.Float64bits(want) || a.CompletedTasks(in) == 0 {
		t.Fatalf("TotalScore over blocks %v, without %v (%d tasks complete)", got, want, a.CompletedTasks(in))
	}
}

// countingModel counts its calls, the diagonal's included.
type countingModel struct {
	n     int
	f     func(i, k int) float64
	calls int
}

func (m *countingModel) Quality(i, k int) float64 { m.calls++; return m.f(i, k) }
func (m *countingModel) NumWorkers() int          { return m.n }
