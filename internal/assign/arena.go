package assign

import (
	"casc/internal/game"
	"casc/internal/model"
)

// Arena is the reusable scratch memory of one solver's hot path. TPG and GT
// draw every per-solve buffer — the result assignment, the per-task
// GroupScores and their cross-sum caches, the stage-one bitsets and flat
// B-set slots, the stage-two heap, and the best-response engine's queues —
// from here, so a solver that keeps one arena across solves reaches a
// zero-allocation steady state: the first solve of a size regime grows the
// buffers, subsequent solves only re-slice them (asserted by
// TestTPGSteadyStateAllocs / BenchEntry AllocsPerOp gating).
//
// The arena never changes what a solve computes — every buffer is fully
// re-initialized before use, so an arena-backed solve is bitwise identical
// to one running on fresh allocations (FuzzArenaEquivalence). What it does
// change is result lifetime: the *model.Assignment returned by a solve is
// arena-owned and valid only until the next solve on the same arena.
// Callers that retain results across solves (the harness tables, batch
// history) must consume or Clone them first; the incremental engine lifts
// each component result before reusing the arena.
//
// An Arena is not safe for concurrent use. Solvers default to a throwaway
// arena per Solve (same code path, no reuse), so plain TPG/GT values stay
// as concurrency-safe as before; reuse is opt-in via SetArena.
type Arena struct {
	// used reports whether any solve has drawn from the arena; reuses and
	// grows accumulate across solves and are flushed as metric deltas by the
	// owning solver's recordMetrics.
	used   bool
	reuses uint64
	grows  uint64

	// Worker-sized buffers.
	avail []bool

	// Task-sized buffers (TPG stage one / stage two).
	served    []bool
	remaining []bool
	dirty     []bool
	bestScore []float64
	bestSet   [][]int
	candCount []int
	version   []int
	groups    []*model.GroupScore

	// Flat GroupScore scratch: task t's cross-sum cache and BestSwap row,
	// 2·groupSlot(in, t) floats, and its members' list positions,
	// groupSlot(in, t) ints, carved in task order (see groupsFor).
	groupStore []float64
	groupPos   []int

	// Flat B-set storage: bestSet[t] is filled in place from the slot
	// setStore[t*stride : t*stride+stride], stride = Instance.B.
	setStore  []int
	setStride int

	// bestBSubset candidate keys, its carried marginal gains (gains[i]
	// belongs to cands[i]) and the truncateByAffinity sorter.
	cands  []int
	gains  []float64
	scored scoredCands

	// Stage-one seed-pair runners-up: task t's ranked list is
	// seeds[t*seedTop : t*seedTop+seedLen[t]] (see scanSeeds).
	seeds   []seedPair
	seedLen []int

	// Stage-two lazy heap.
	pairs pairHeap

	// GT state: the strategic game and the best-response engine's queues.
	casc cascGame
	game game.Scratch

	// The result assignment handed back to the caller.
	result model.Assignment
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// ArenaHolder is implemented by solvers whose hot path can run on a caller
// supplied scratch arena (TPG and the GT family). Setting an arena makes
// Solve results arena-owned (valid until the next Solve on that arena) and
// the solver unsafe for concurrent Solve calls; passing nil restores the
// default throwaway-arena behaviour. Forks never inherit the parent's
// arena; whoever forks attaches one via SetArena if it wants reuse.
type ArenaHolder interface {
	SetArena(*Arena)
}

// begin marks the start of one top-level solve for the reuse statistics.
func (ar *Arena) begin() {
	if ar.used {
		ar.reuses++
	} else {
		ar.used = true
	}
}

// assignmentFor returns the arena's result assignment, emptied for in.
func (ar *Arena) assignmentFor(in *model.Instance) *model.Assignment {
	ar.result.Reset(in)
	return &ar.result
}

// groupsFor returns one emptied GroupScore per task of in.
func (ar *Arena) groupsFor(in *model.Instance) []*model.GroupScore {
	n := len(in.Tasks)
	if cap(ar.groups) < n {
		grown := make([]*model.GroupScore, len(ar.groups), n)
		copy(grown, ar.groups)
		ar.groups = grown
		ar.grows++
	}
	for len(ar.groups) < n {
		ar.groups = append(ar.groups, &model.GroupScore{})
	}
	need := 0
	for t := 0; t < n; t++ {
		need += groupSlot(in, t)
	}
	if cap(ar.groupStore) < 2*need {
		ar.groupStore = make([]float64, 2*need)
		ar.grows++
	}
	if cap(ar.groupPos) < need {
		ar.groupPos = make([]int, need)
		ar.grows++
	}
	gs := ar.groups[:n]
	off := 0
	for t := range gs {
		k := groupSlot(in, t)
		gs[t].ResetTask(in, t, ar.groupStore[2*off:2*(off+k):2*(off+k)], ar.groupPos[off:off+k:off+k])
		off += k
	}
	return gs
}

// groupSlot is the most members task t's group can hold: its capacity, or
// its candidate count when that is smaller. A group that outgrows its slot
// (no candidates built) stays correct and grows its own storage.
func groupSlot(in *model.Instance, t int) int {
	if t >= len(in.TaskCand) {
		return 0
	}
	return max(0, min(in.Tasks[t].Capacity, len(in.TaskCand[t])))
}

// boolsFor resizes *buf to n elements, all set to fill.
func (ar *Arena) boolsFor(buf *[]bool, n int, fill bool) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		ar.grows++
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = fill
	}
	return b
}

// intsFor resizes *buf to n elements without clearing them; callers that
// need a defined initial value fill it themselves.
func (ar *Arena) intsFor(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
		ar.grows++
	}
	return (*buf)[:n]
}

// floatsFor resizes *buf to n elements without clearing them.
func (ar *Arena) floatsFor(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
		ar.grows++
	}
	return (*buf)[:n]
}

// setsFor readies the per-task B-set slots: n nil entries in bestSet backed
// by flat stride-b storage (see setSlot).
func (ar *Arena) setsFor(n, b int) [][]int {
	if cap(ar.bestSet) < n {
		ar.bestSet = make([][]int, n)
		ar.grows++
	}
	ar.bestSet = ar.bestSet[:n]
	for i := range ar.bestSet {
		ar.bestSet[i] = nil
	}
	if b < 1 {
		b = 1
	}
	if need := n * b; cap(ar.setStore) < need {
		ar.setStore = make([]int, need)
		ar.grows++
	}
	ar.setStride = b
	return ar.bestSet
}

// setSlot returns task t's empty B-set slot (length 0, capacity B) carved
// out of the flat store. Appending up to B workers never allocates, and
// slots of distinct tasks never alias.
func (ar *Arena) setSlot(t int) []int {
	off := t * ar.setStride
	return ar.setStore[off : off : off+ar.setStride]
}

// seedsFor readies the per-task seed-pair lists for n tasks, all empty.
func (ar *Arena) seedsFor(n int) {
	if need := n * seedTop; cap(ar.seeds) < need {
		ar.seeds = make([]seedPair, need)
		ar.grows++
	}
	ar.seeds = ar.seeds[:n*seedTop]
	ar.seedLen = ar.intsFor(&ar.seedLen, n)
	for t := range ar.seedLen {
		ar.seedLen[t] = 0
	}
}

// seedSlot returns task t's full seed-pair slot of seedTop entries.
func (ar *Arena) seedSlot(t int) []seedPair {
	off := t * seedTop
	return ar.seeds[off : off+seedTop : off+seedTop]
}

// scoredFor resizes the affinity sorter to n entries.
func (ar *Arena) scoredFor(n int) *scoredCands {
	if cap(ar.scored.w) < n {
		ar.scored.w = make([]int, n)
		ar.scored.s = make([]float64, n)
		ar.grows++
	}
	ar.scored.w = ar.scored.w[:n]
	ar.scored.s = ar.scored.s[:n]
	return &ar.scored
}

// scoredCands sorts candidate workers by descending affinity score for
// truncateByAffinity. Structure-of-arrays so sort.Sort works on a
// pre-existing pointer without the closure and reflect.Swapper allocations
// of sort.Slice; both run the identical pdqsort, so the resulting
// permutation — ties included — matches the previous sort.Slice exactly.
type scoredCands struct {
	w []int
	s []float64
}

func (sc *scoredCands) Len() int           { return len(sc.w) }
func (sc *scoredCands) Less(i, j int) bool { return sc.s[i] > sc.s[j] }
func (sc *scoredCands) Swap(i, j int) {
	sc.w[i], sc.w[j] = sc.w[j], sc.w[i]
	sc.s[i], sc.s[j] = sc.s[j], sc.s[i]
}

// gameFor readies the arena's CA-SC strategic game over init. The groups
// are rebuilt by replaying init.TaskWorkers in order, reproducing the float
// accumulation order of a freshly constructed game bit for bit.
func (ar *Arena) gameFor(in *model.Instance, init *model.Assignment) *cascGame {
	g := &ar.casc
	g.in = in
	g.groups = ar.groupsFor(in)
	g.cur = ar.intsFor(&g.cur, len(in.Workers))
	for w := range g.cur {
		g.cur[w] = model.Unassigned
	}
	g.taskStamp = ar.intsFor(&g.taskStamp, len(in.Tasks))
	if cap(g.memo) < len(in.Workers) {
		g.memo = make([]brMemo, len(in.Workers))
		ar.grows++
	}
	g.memo = g.memo[:len(in.Workers)]
	g.resetMemo()
	g.affected = g.affected[:0]
	for t, ws := range init.TaskWorkers {
		for _, w := range ws {
			g.groups[t].Join(w)
			g.cur[w] = t
		}
	}
	return g
}
