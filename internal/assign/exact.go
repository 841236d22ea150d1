package assign

import (
	"context"
	"sort"

	"casc/internal/model"
	"casc/internal/partition"
)

// Exact is a branch-and-bound optimal solver. Like BruteForce it explores
// every worker's choice of candidate task (or none), but it prunes with the
// Lemma V.2 bound: the objective decomposes as Q(T) = Σ_{assigned i}
// q_i(W_j) and every term is at most q̂_{i,B}, so
//
//	best-completion(partial) ≤ current-score-if-all-groups-close +
//	                           Σ_{undecided i} q̂_{i,B}.
//
// The subtlety is that a partial assignment's groups may still be below B;
// their members' eventual contribution is also bounded by q̂, so the bound
// sums q̂ over undecided workers plus members of open groups, and adds Q of
// groups that already reached B. Workers are branched in descending-q̂
// order, which makes the bound bite early. Exact handles tens of workers —
// an order of magnitude beyond BruteForce — and exists to measure the true
// optimality gap of TPG and GT on mid-size instances (see
// TestExactMatchesBruteForce and the optgap analysis in EXPERIMENTS.md).
type Exact struct {
	// MaxNodes caps the search tree (default 20 million); Solve returns the
	// best assignment found so far when the cap is hit, with Optimal=false.
	MaxNodes int
	// Optimal reports whether the last Solve proved optimality.
	Optimal bool
}

// Name implements Solver.
func (s *Exact) Name() string { return "EXACT" }

// Fork implements Forker: the fork carries the node cap; Optimal is
// per-fork state.
func (s *Exact) Fork(int64) Solver { return &Exact{MaxNodes: s.MaxNodes} }

// Solve implements Solver. The instance is first split into the connected
// components of its validity graph (internal/partition) and each component
// is searched independently — the optimum is additive across components, so
// this loses nothing while bounding the tractable instance size by the
// largest component instead of the whole batch. The node budget is shared:
// components are searched in partition order (largest first) until MaxNodes
// is exhausted, after which the remaining components still get a
// best-effort search of whatever budget trickles through (at least the
// root), and Optimal reports false.
func (s *Exact) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	maxNodes := s.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 2e7
	}
	subs, maps := partition.Decompose(in)
	a := model.NewAssignment(in)
	s.Optimal = true
	remaining := maxNodes
	for i, sub := range subs {
		budget := remaining
		if budget < 1 {
			budget = 1 // still visit the root so Optimal turns false
		}
		best, nodes, optimal := exactSearch(ctx, sub, budget)
		remaining -= nodes
		if !optimal {
			s.Optimal = false
		}
		sa := model.NewAssignment(sub)
		for w, t := range best {
			if t != model.Unassigned {
				sa.Assign(w, t)
			}
		}
		maps[i].Lift(sa, a)
	}
	return a, nil
}

// exactSearch runs the Lemma V.2 branch and bound on one (sub-)instance,
// returning the best worker→task vector found, the nodes expanded, and
// whether the search closed within maxNodes.
func exactSearch(ctx context.Context, in *model.Instance, maxNodes int) ([]int, int, bool) {
	nW := len(in.Workers)
	bounds := Bounds(in)

	// Branch order: feasible workers by descending q̂, then the rest (which
	// can never contribute and are skipped outright).
	order := make([]int, 0, nW)
	for w := 0; w < nW; w++ {
		if bounds[w].Feasible && len(in.WorkerCand[w]) > 0 {
			order = append(order, w)
		}
	}
	sort.Slice(order, func(a, b int) bool { return bounds[order[a]].QHat > bounds[order[b]].QHat })
	// suffixHat[i] = Σ_{j≥i} q̂ of order[j].
	suffixHat := make([]float64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		suffixHat[i] = suffixHat[i+1] + bounds[order[i]].QHat
	}

	groups := newGroups(in)
	cur := make([]int, nW)
	best := make([]int, nW)
	for i := range cur {
		cur[i] = model.Unassigned
		best[i] = model.Unassigned
	}
	bestScore := -1.0
	nodes := 0
	optimal := true

	// score of the current partial assignment counting only closed groups
	// (≥ B) is recomputed cheaply from the GroupScores on demand.
	closedScore := func() float64 {
		var total float64
		for _, g := range groups {
			total += g.Q()
		}
		return total
	}
	// openPotential sums q̂ of members of groups still below B: they might
	// yet earn up to q̂ each if the group closes.
	openPotential := func() float64 {
		var total float64
		for _, g := range groups {
			if g.Len() >= in.B {
				continue
			}
			for _, w := range g.Members() {
				total += bounds[w].QHat
			}
		}
		return total
	}

	var rec func(pos int)
	rec = func(pos int) {
		if nodes >= maxNodes || ctx.Err() != nil {
			optimal = false
			return
		}
		nodes++
		if cs := closedScore(); cs > bestScore {
			bestScore = cs
			copy(best, cur)
		}
		if pos == len(order) {
			return
		}
		// Prune: even if every undecided worker and every open-group member
		// contributes its maximum possible average, can we beat the best?
		if closedScore()+openPotential()+suffixHat[pos] <= bestScore+1e-12 {
			return
		}
		w := order[pos]
		for _, t := range in.WorkerCand[w] {
			g := groups[t]
			if g.Len() >= g.Capacity() {
				continue
			}
			g.Join(w)
			cur[w] = t
			rec(pos + 1)
			g.Leave(w)
			cur[w] = model.Unassigned
			if nodes >= maxNodes || ctx.Err() != nil {
				return
			}
		}
		rec(pos + 1) // leave w unassigned
	}
	rec(0)
	return best, nodes, optimal
}
