package model

import (
	"context"
	"slices"
)

// TaskBlocks holds quality blocks for an instance's tasks. Equation 2 only
// pairs workers at one task, so every quality a solver asks for pairs two
// candidates of the same task. Task t's block, when it has one, is the
// row-major n×n matrix, n = |TaskCand_t|, whose entry (a, b) is
// Quality(TaskCand_t[a], TaskCand_t[b]) with the model's exact bits, the
// diagonal included. Next to the blocks, each worker's position in the
// lists of its candidate tasks lets a caller that walks WorkerCand find
// its row without a search.
//
// TPG, GT's GroupScores, Assignment.TotalScore and UPPER's q̂ walk read
// in-task pairs from a task's block when it has one, and from the model
// otherwise, adding in the same order either way, so every sum keeps its
// bits.
type TaskBlocks struct {
	q     []float64
	start []int   // task t's block is q[start[t]:][:n²], n = |TaskCand_t|; -1 when it has none
	pos   [][]int // pos[w][k] is w's position in TaskCand[WorkerCand[w][k]]
}

// MaxBlockSide is the longest candidate list FillBlocks gives a block. It
// is TPG's default SeedLimit: TPG truncates a longer pool by sampling and
// seeds from SeedLimit² of its pairs, so most of a block that size would
// go unread.
const MaxBlockSide = 512

// FillBlocks sets in.Blocks from in.Quality for each task it gives a
// block: with one QualityBlock call per task when the model is a
// BlockModel, else with n² Quality calls, row by row. A task gets a block
// when its list holds n ≤ MaxBlockSide candidates, while the blocks so far
// leave room for n² entries. The room is 2·P + |valid pairs|, where P is
// min(CoCandidatePairs, N(N−1)/2) for N workers, a bound on the distinct
// pairs a round can read: the blocks never hold more entries than those
// pairs ordered both ways, plus the diagonals. Without shared candidates
// that room is exactly Σ_t |TaskCand_t|², so every task short enough gets
// its block; a round whose workers are candidates of many tasks at once
// gets blocks for its first tasks only, and the rest read the model.
//
// FillBlocks sets no blocks when ctx is done before it ends. The candidate
// lists must be built and ascending, as BuildCandidates and SubInstance
// make them. Neither the lists nor Quality may change while the blocks
// are in use; setting in.Blocks to nil drops them.
func (in *Instance) FillBlocks(ctx context.Context) {
	nW := len(in.Workers)
	room := 2*min(in.CoCandidatePairs(), nW*(nW-1)/2) + in.NumValidPairs()
	start := make([]int, len(in.Tasks))
	size := 0
	for t, c := range in.TaskCand {
		if !slices.IsSorted(c) {
			panic("model: FillBlocks over a candidate list that is not ascending")
		}
		start[t] = -1
		if n := len(c); n > 0 && n <= MaxBlockSide && n*n <= room-size {
			start[t] = size
			size += n * n
		}
	}
	q := make([]float64, size)
	bm, _ := in.Quality.(BlockModel)
	for t, c := range in.TaskCand {
		if ctx.Err() != nil {
			return
		}
		if start[t] < 0 {
			continue
		}
		b := q[start[t] : start[t]+len(c)*len(c)]
		if bm != nil {
			bm.QualityBlock(c, b)
		} else {
			readPairs(in.Quality, c, b)
		}
	}
	// Tasks are visited in ascending order, so a worker's k-th visit is
	// from WorkerCand[w][k], the list being ascending too.
	flat := make([]int, in.NumValidPairs())
	pos := make([][]int, len(in.Workers))
	o := 0
	for w, c := range in.WorkerCand {
		pos[w] = flat[o : o : o+len(c)]
		o += len(c)
	}
	for t, c := range in.TaskCand {
		for a, w := range c {
			if k := len(pos[w]); k == cap(pos[w]) || in.WorkerCand[w][k] != t {
				panic("model: FillBlocks over WorkerCand and TaskCand lists that disagree")
			}
			pos[w] = append(pos[w], a)
		}
	}
	in.Blocks = &TaskBlocks{q: q, start: start, pos: pos}
}

// readPairs sets dst[a·n+b] to m.Quality(ids[a], ids[b]), n = len(ids),
// one call per ordered pair, row by row, the diagonal included.
func readPairs(m QualityModel, ids []int, dst []float64) {
	n := len(ids)
	for a, x := range ids {
		row := dst[a*n : (a+1)*n]
		for b, y := range ids {
			row[b] = m.Quality(x, y)
		}
	}
}

// TaskBlock returns task t's block, row-major over the positions of
// TaskCand[t], or nil when t has none.
func (in *Instance) TaskBlock(t int) []float64 {
	if in.Blocks == nil {
		return nil
	}
	lo := in.Blocks.start[t]
	if lo < 0 {
		return nil
	}
	n := len(in.TaskCand[t])
	return in.Blocks.q[lo : lo+n*n]
}

// CandPos returns worker w's position in the list of its k-th candidate
// task, TaskCand[WorkerCand[w][k]], or -1 when in carries no blocks.
func (in *Instance) CandPos(w, k int) int {
	if in.Blocks == nil {
		return -1
	}
	return in.Blocks.pos[w][k]
}

// BlockRow returns worker w's row in the block of its k-th candidate task,
// indexed like that task's list, or nil when that task has no block.
func (in *Instance) BlockRow(w, k int) []float64 {
	blk := in.TaskBlock(in.WorkerCand[w][k])
	if blk == nil {
		return nil
	}
	n, a := len(in.TaskCand[in.WorkerCand[w][k]]), in.Blocks.pos[w][k]
	return blk[a*n : (a+1)*n]
}
