package model

import "slices"

// This file implements the cooperation quality revenue of Equation 2, the
// overall objective of Equation 3, and the quality increase of Equation 4,
// plus an incremental per-task accumulator (GroupScore) that lets the
// solvers evaluate join/leave deltas in O(|W_j|) quality lookups instead of
// O(|W_j|^2).

// GroupQuality computes Q(W) for the worker set ws assigned to a task with
// the given capacity (Equation 2):
//
//	Q(W) = 0                                   if |W| < B
//	Q(W) = Σ_i Σ_{k≠i} q_i(w_k) / (min(|W|,cap)−1)   otherwise
//
// ws holds worker slice positions. The ordered-pair sum is computed as
// written in the paper; for symmetric models it equals twice the unordered
// sum.
func (in *Instance) GroupQuality(ws []int, capacity int) float64 {
	denom := in.groupDenom(len(ws), capacity)
	if denom == 0 {
		return 0
	}
	n := len(ws)
	var sum float64
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				sum += in.Quality.Quality(ws[a], ws[b])
			}
		}
	}
	return sum / float64(denom)
}

// groupDenom returns the divisor min(n, capacity)−1 of Equation 2 for a
// group of n workers, or 0 when the group earns nothing: below B, or with
// no pair (unreachable with B ≥ 2, but guarded anyway).
func (in *Instance) groupDenom(n, capacity int) int {
	if n < in.B || min(n, capacity) < 2 {
		return 0
	}
	return min(n, capacity) - 1
}

// TaskQuality is GroupQuality for the group ws at task t, reading t's
// block in GroupQuality's order when t has one and every member is a
// candidate of t, so it returns GroupQuality's bits either way.
func (in *Instance) TaskQuality(t int, ws []int) float64 {
	denom := in.groupDenom(len(ws), in.Tasks[t].Capacity)
	q := in.TaskBlock(t)
	if q == nil || denom == 0 {
		return in.GroupQuality(ws, in.Tasks[t].Capacity)
	}
	var buf [8]int
	pos := buf[:0]
	for _, w := range ws {
		p, ok := slices.BinarySearch(in.TaskCand[t], w)
		if !ok {
			return in.GroupQuality(ws, in.Tasks[t].Capacity)
		}
		pos = append(pos, p)
	}
	n := len(in.TaskCand[t])
	var sum float64
	for a, pa := range pos {
		for b, pb := range pos {
			if a != b {
				sum += q[pa*n+pb]
			}
		}
	}
	return sum / float64(denom)
}

// WorkerAvgQuality returns q_i(W_j), the average quality score of worker w
// within group ws on a task with the given capacity:
// Σ_{k≠i} q_i(w_k) / (min(|W_j|,cap)−1). It returns 0 when |ws| < B
// (no revenue below the minimum group size).
func (in *Instance) WorkerAvgQuality(w int, ws []int, capacity int) float64 {
	n := len(ws)
	if n < in.B {
		return 0
	}
	denom := n
	if capacity < denom {
		denom = capacity
	}
	if denom < 2 {
		return 0
	}
	var sum float64
	for _, k := range ws {
		if k != w {
			sum += in.Quality.Quality(w, k)
		}
	}
	return sum / float64(denom-1)
}

// DeltaQuality computes ΔQ(w, t) of Equation 4 for worker w joining the
// worker set ws (which must NOT already contain w) of a task with the given
// capacity: Q(W ∪ {w}) − Q(W).
func (in *Instance) DeltaQuality(w int, ws []int, capacity int) float64 {
	with := make([]int, len(ws)+1)
	copy(with, ws)
	with[len(ws)] = w
	return in.GroupQuality(with, capacity) - in.GroupQuality(ws, capacity)
}

// GroupScore incrementally tracks the ordered-pair quality sum S of one
// task's worker set so Q and join/leave deltas cost O(|W|) instead of
// O(|W|^2). It is the workhorse of the GT solver's inner loop.
//
// Reads fill a per-member cross-sum cache (see crossSums), so even the
// read-only methods mutate the group: one GroupScore must not be read
// concurrently.
type GroupScore struct {
	in *Instance
	// A group bound to a task with a block (ResetTask) reads every quality
	// from that block blk, of side n: pos[i] is members[i]'s position in
	// the task's candidate list. Otherwise blk is nil and pos stays empty.
	// blk sits next to in, on the cache line every method reads.
	blk      []float64
	capacity int
	members  []int
	pairSum  float64 // Σ_i Σ_{k≠i} q_i(w_k) over current members
	// cross[i] is crossSum(members[i]) while cached is set. Join, Leave and
	// Reset drop the whole cache rather than patch it: an incremental
	// update would add in a different order and change the float bits.
	cross  []float64
	cached bool
	// row is BestSwap's per-call scratch.
	row  []float64
	task int
	n    int
	pos  []int
}

// NewGroupScore returns an empty accumulator for a task with the given
// capacity.
func (in *Instance) NewGroupScore(capacity int) *GroupScore {
	return &GroupScore{in: in, capacity: capacity}
}

// Reset re-points the accumulator at a (possibly different) instance and
// capacity and empties it, keeping the member slice's storage. It exists so
// the solver scratch arena can recycle GroupScores across solves without
// allocating. A non-nil scratch backs the cross-sum cache and BestSwap's
// row: each gets one half, so groups of up to len(scratch)/2 members
// evaluate without allocating. A nil scratch keeps the group's own storage.
func (g *GroupScore) Reset(in *Instance, capacity int, scratch []float64) {
	g.in = in
	g.capacity = capacity
	g.members = g.members[:0]
	g.pos = g.pos[:0]
	g.task, g.blk, g.n = -1, nil, 0
	g.pairSum = 0
	g.cached = false
	if scratch != nil {
		k := len(scratch) / 2
		g.cross = scratch[:0:k]
		g.row = scratch[k:k:len(scratch)]
	}
}

// ResetTask is Reset for task t of in at its capacity, with pos, when not
// nil, backing the members' positions in TaskCand[t] as scratch backs the
// caches. When t has a block, the group reads every quality from it, so
// it may only hold candidates of t; the *At methods take a worker's
// position in TaskCand[t] and spare the search for it.
func (g *GroupScore) ResetTask(in *Instance, t int, scratch []float64, pos []int) {
	g.Reset(in, in.Tasks[t].Capacity, scratch)
	if pos != nil {
		g.pos = pos[:0]
	}
	g.task = t
	g.blk, g.n = in.TaskBlock(t), len(in.TaskCand[t])
}

// posOf returns w's position in the group's task list, or -1 when the
// group reads no block.
func (g *GroupScore) posOf(w int) int {
	if g.blk == nil {
		return -1
	}
	p, ok := slices.BinarySearch(g.in.TaskCand[g.task], w)
	if !ok {
		panic("model: worker is not a candidate of the group's task")
	}
	return p
}

// Members returns the current member slice (not a copy; do not mutate).
func (g *GroupScore) Members() []int { return g.members }

// Len returns the number of members.
func (g *GroupScore) Len() int { return len(g.members) }

// Capacity returns the task capacity a_j.
func (g *GroupScore) Capacity() int { return g.capacity }

// Contains reports whether worker w is a member.
func (g *GroupScore) Contains(w int) bool { return g.indexOf(w) >= 0 }

func (g *GroupScore) indexOf(w int) int {
	for i, m := range g.members {
		if m == w {
			return i
		}
	}
	return -1
}

// crossSum returns Σ_{k ∈ members} (q_w(k) + q_k(w)), the ordered-pair mass
// worker w adds to (or removes from) the group; p is w's position in the
// task's list, read only when the group reads a block.
func (g *GroupScore) crossSum(w, p int) float64 {
	var s float64
	if g.blk != nil {
		row := g.blk[p*g.n : (p+1)*g.n]
		for i, m := range g.members {
			if m != w {
				k := g.pos[i]
				s += row[k] + g.blk[k*g.n+p]
			}
		}
		return s
	}
	for _, m := range g.members {
		if m != w {
			s += g.in.Quality.Quality(w, m) + g.in.Quality.Quality(m, w)
		}
	}
	return s
}

// crossSums returns the cache, cross[i] = crossSum(members[i]), filling it
// in one pass on the first read after a mutation.
func (g *GroupScore) crossSums() []float64 {
	if !g.cached {
		g.cross = g.cross[:0]
		for i, m := range g.members {
			p := -1
			if g.blk != nil {
				p = g.pos[i]
			}
			g.cross = append(g.cross, g.crossSum(m, p))
		}
		g.cached = true
	}
	return g.cross
}

// memberCross returns crossSum(w), from the cache when w is a member.
func (g *GroupScore) memberCross(w int) float64 {
	if i := g.indexOf(w); i >= 0 {
		return g.crossSums()[i]
	}
	return g.crossSum(w, g.posOf(w))
}

func (g *GroupScore) qOf(n int, pairSum float64) float64 {
	if n < g.in.B {
		return 0
	}
	denom := n
	if g.capacity < denom {
		denom = g.capacity
	}
	if denom < 2 {
		return 0
	}
	return pairSum / float64(denom-1)
}

// Q returns the current Q(W) per Equation 2.
func (g *GroupScore) Q() float64 { return g.qOf(len(g.members), g.pairSum) }

// JoinDelta returns Q(W ∪ {w}) − Q(W) without mutating the group. w must
// not be a member.
func (g *GroupScore) JoinDelta(w int) float64 { return g.JoinDeltaAt(w, g.posOf(w)) }

// JoinDeltaAt is JoinDelta for w at position p of the task's list.
func (g *GroupScore) JoinDeltaAt(w, p int) float64 {
	newSum := g.pairSum + g.crossSum(w, p)
	return g.qOf(len(g.members)+1, newSum) - g.Q()
}

// LeaveDelta returns Q(W) − Q(W \ {w}), i.e. ΔQ(w, t) of Equation 4, for a
// current member w.
func (g *GroupScore) LeaveDelta(w int) float64 {
	newSum := g.pairSum - g.memberCross(w)
	return g.Q() - g.qOf(len(g.members)-1, newSum)
}

// SwapDelta returns the change in Q when member out is replaced by
// non-member in: Q(W \ {out} ∪ {in}) − Q(W).
func (g *GroupScore) SwapDelta(out, in int) float64 {
	sum := g.pairSum - g.memberCross(out)
	// crossSum of `in` against members-without-out.
	var cs float64
	if g.blk != nil {
		p := g.posOf(in)
		for i, m := range g.members {
			if m != out && m != in {
				k := g.pos[i]
				cs += g.blk[p*g.n+k] + g.blk[k*g.n+p]
			}
		}
	} else {
		for _, m := range g.members {
			if m != out && m != in {
				cs += g.in.Quality.Quality(in, m) + g.in.Quality.Quality(m, in)
			}
		}
	}
	sum += cs
	return g.qOf(len(g.members), sum) - g.Q()
}

// BestSwap returns the best crowd-out move for non-member in: the largest
// SwapDelta(out, in) over members out and that member, the first maximising
// member winning ties (out is -1 for an empty group). It looks up the row
// x[j] = q_in(m_j) + q_{m_j}(in) once, 2|W| lookups, instead of once per
// out. Each delta sums x[j] over j ≠ out from 0 in member order, the exact
// addition sequence of SwapDelta, so it returns the same bits.
func (g *GroupScore) BestSwap(in int) (delta float64, out int) { return g.BestSwapAt(in, g.posOf(in)) }

// BestSwapAt is BestSwap for in at position p of the task's list.
func (g *GroupScore) BestSwapAt(in, p int) (delta float64, out int) {
	g.row = g.row[:0]
	if g.blk != nil {
		row := g.blk[p*g.n : (p+1)*g.n]
		for _, k := range g.pos {
			g.row = append(g.row, row[k]+g.blk[k*g.n+p])
		}
	} else {
		for _, m := range g.members {
			g.row = append(g.row, g.in.Quality.Quality(in, m)+g.in.Quality.Quality(m, in))
		}
	}
	cross := g.crossSums()
	q := g.Q()
	out = -1
	var pre float64 // x[0] + … + x[o-1]: the shared prefix of every later sum
	for o, m := range g.members {
		cs := pre
		for _, x := range g.row[o+1:] {
			cs += x
		}
		pre += g.row[o]
		sum := g.pairSum - cross[o]
		sum += cs
		if d := g.qOf(len(g.members), sum) - q; out < 0 || d > delta {
			delta, out = d, m
		}
	}
	return delta, out
}

// Join adds worker w. It panics if w is already a member or the group is at
// capacity — callers decide eviction policy explicitly via Leave/Join.
func (g *GroupScore) Join(w int) { g.JoinAt(w, g.posOf(w)) }

// JoinAt is Join for w at position p of the task's list.
func (g *GroupScore) JoinAt(w, p int) {
	if g.Contains(w) {
		panic("model: worker already in group")
	}
	if len(g.members) >= g.capacity {
		panic("model: group at capacity")
	}
	g.pairSum += g.crossSum(w, p)
	g.members = append(g.members, w)
	if g.blk != nil {
		g.pos = append(g.pos, p)
	}
	g.cached = false
}

// Leave removes member w. It panics if w is not a member. The pair sum
// drops by w's cross-sum over the remaining members in their new order,
// not by the cached value, which was summed in the old order.
func (g *GroupScore) Leave(w int) {
	i := g.indexOf(w)
	if i < 0 {
		panic("model: worker not in group")
	}
	last, p := len(g.members)-1, -1
	g.members[i] = g.members[last]
	g.members = g.members[:last]
	if g.blk != nil {
		p = g.pos[i]
		g.pos[i] = g.pos[last]
		g.pos = g.pos[:last]
	}
	g.pairSum -= g.crossSum(w, p)
	g.cached = false
}
