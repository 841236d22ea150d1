// Package ksetpack implements the weighted k-set packing problem (k-SP) and
// the polynomial-time reduction from k-SP to CA-SC used in the paper's
// NP-hardness proof (Theorem II.1). Having the reduction as executable,
// tested code both documents the proof and provides adversarial CA-SC
// instances whose optima are known exactly.
package ksetpack

import (
	"fmt"
	"sort"
)

// Instance is a weighted k-set packing instance: a universe {0,...,U-1}, a
// collection of subsets with weights, and the size bound K. The goal is a
// maximum-weight collection of pairwise disjoint subsets of size ≤ K.
//
//casclint:ignore deadcode the paper's Theorem II.1 k-SP reduction, kept as a tested artifact of the NP-hardness proof
type Instance struct {
	U       int
	K       int
	Sets    [][]int
	Weights []float64
}

// Validate checks structural sanity.
func (in *Instance) Validate() error {
	if in.U < 0 || in.K < 1 {
		return fmt.Errorf("ksetpack: bad U=%d K=%d", in.U, in.K)
	}
	if len(in.Sets) != len(in.Weights) {
		return fmt.Errorf("ksetpack: %d sets but %d weights", len(in.Sets), len(in.Weights))
	}
	for i, s := range in.Sets {
		if len(s) == 0 || len(s) > in.K {
			return fmt.Errorf("ksetpack: set %d has size %d, want 1..%d", i, len(s), in.K)
		}
		seen := map[int]bool{}
		for _, e := range s {
			if e < 0 || e >= in.U {
				return fmt.Errorf("ksetpack: set %d contains element %d outside universe", i, e)
			}
			if seen[e] {
				return fmt.Errorf("ksetpack: set %d contains duplicate element %d", i, e)
			}
			seen[e] = true
		}
		if in.Weights[i] < 0 {
			return fmt.Errorf("ksetpack: set %d has negative weight", i)
		}
	}
	return nil
}

// Solution is the indices of the selected subsets.
type Solution []int

// Weight returns the total weight of the solution.
func (in *Instance) Weight(sol Solution) float64 {
	var w float64
	for _, i := range sol {
		w += in.Weights[i]
	}
	return w
}

// Feasible reports whether sol selects pairwise-disjoint sets.
func (in *Instance) Feasible(sol Solution) bool {
	used := map[int]bool{}
	for _, i := range sol {
		if i < 0 || i >= len(in.Sets) {
			return false
		}
		for _, e := range in.Sets[i] {
			if used[e] {
				return false
			}
			used[e] = true
		}
	}
	return true
}

// SolveExact finds a maximum-weight packing by branch and bound over sets.
// Exponential; intended for the small instances in tests.
func (in *Instance) SolveExact() Solution {
	n := len(in.Sets)
	// Order sets by weight descending for better pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.Weights[order[a]] > in.Weights[order[b]] })
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + in.Weights[order[i]]
	}
	used := make([]bool, in.U)
	var best Solution
	bestW := -1.0
	var cur Solution
	curW := 0.0
	var rec func(pos int)
	rec = func(pos int) {
		if curW > bestW {
			bestW = curW
			best = append(Solution(nil), cur...)
		}
		if pos == n || curW+suffix[pos] <= bestW {
			return
		}
		si := order[pos]
		ok := true
		for _, e := range in.Sets[si] {
			if used[e] {
				ok = false
				break
			}
		}
		if ok {
			for _, e := range in.Sets[si] {
				used[e] = true
			}
			cur = append(cur, si)
			curW += in.Weights[si]
			rec(pos + 1)
			curW -= in.Weights[si]
			cur = cur[:len(cur)-1]
			for _, e := range in.Sets[si] {
				used[e] = false
			}
		}
		rec(pos + 1)
	}
	rec(0)
	sort.Ints(best)
	return best
}

// SolveGreedy packs sets by descending weight, skipping conflicts — the
// classical 1/k-approximation.
func (in *Instance) SolveGreedy() Solution {
	order := make([]int, len(in.Sets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.Weights[order[a]] > in.Weights[order[b]] })
	used := make([]bool, in.U)
	var sol Solution
	for _, si := range order {
		ok := true
		for _, e := range in.Sets[si] {
			if used[e] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, e := range in.Sets[si] {
			used[e] = true
		}
		sol = append(sol, si)
	}
	sort.Ints(sol)
	return sol
}
