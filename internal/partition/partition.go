// Package partition decomposes a batch instance into the connected
// components of its worker–task validity graph. The paper's objective Q(T)
// (Equation 3) is additive over tasks and every constraint — capacity,
// working area, deadline — only couples workers that share a candidate
// task, so the components are genuinely independent: solving each in
// isolation and merging loses nothing against solving the whole instance.
package partition

import (
	"slices"

	"casc/internal/model"
)

// Component is one connected component of the worker–task validity graph.
// Workers and Tasks hold parent instance positions, ascending; Pairs counts
// the valid worker-and-task pairs inside the component.
type Component struct {
	Workers []int
	Tasks   []int
	Pairs   int
}

// Size is the node count of the component, the load-balance proxy used to
// order components largest first.
func (c Component) Size() int { return len(c.Workers) + len(c.Tasks) }

// Key is the component's lowest parent task position — a scheduling- and
// ordering-independent identity used for deterministic tie-breaks and
// per-component seed derivation.
func (c Component) Key() int { return c.Tasks[0] }

// Components returns the connected components of the instance's validity
// graph, computed by union-find over the candidate lists. Only components
// containing at least one valid pair are emitted: an isolated worker or
// task can never be assigned, so dropping it loses nothing. The result is
// deterministic — ordered largest Size first (for load balance when
// components are solved on a bounded pool), ties broken by lowest Key —
// and requires candidates to have been built on the instance.
func Components(in *model.Instance) []Component {
	if in.WorkerCand == nil {
		panic("partition: Components before BuildCandidates")
	}
	nW, nT := len(in.WorkerCand), len(in.TaskCand)
	uf := newUnionFind(nW + nT)
	pairs := 0
	for w, cand := range in.WorkerCand {
		for _, t := range cand {
			uf.union(w, nW+t)
			pairs++
		}
	}
	if pairs == 0 {
		return nil
	}

	// Number the components and count their members. A task with a
	// candidate shares its component with a worker, so the worker pass
	// numbers them all.
	rootComp := make([]int, nW+nT) // node root -> component index
	for i := range rootComp {
		rootComp[i] = -1
	}
	var comps []Component
	var countW, countT []int
	for w, cand := range in.WorkerCand {
		if len(cand) == 0 {
			continue
		}
		root := uf.find(w)
		if rootComp[root] < 0 {
			rootComp[root] = len(comps)
			comps = append(comps, Component{})
			countW, countT = append(countW, 0), append(countT, 0)
		}
		ci := rootComp[root]
		countW[ci]++
		comps[ci].Pairs += len(cand)
	}
	for t, cand := range in.TaskCand {
		if len(cand) > 0 {
			countT[rootComp[uf.find(nW+t)]]++
		}
	}

	// Carve the member slices out of two shared arenas and fill them in
	// ascending scan order, which keeps each component's Workers/Tasks
	// ascending — SubInstance and the tie-break equivalence arguments rely
	// on it.
	wArena, tArena := make([]int, nW), make([]int, nT)
	offW, offT := 0, 0
	for ci := range comps {
		comps[ci].Workers = wArena[offW : offW : offW+countW[ci]]
		comps[ci].Tasks = tArena[offT : offT : offT+countT[ci]]
		offW += countW[ci]
		offT += countT[ci]
	}
	for w, cand := range in.WorkerCand {
		if len(cand) > 0 {
			c := &comps[rootComp[uf.find(w)]]
			c.Workers = append(c.Workers, w)
		}
	}
	for t, cand := range in.TaskCand {
		if len(cand) > 0 {
			c := &comps[rootComp[uf.find(nW+t)]]
			c.Tasks = append(c.Tasks, t)
		}
	}

	slices.SortFunc(comps, Compare)
	return comps
}

// Compare is Components' order: larger Size first, ties broken by lower
// Key. Keys are distinct, so the order is total.
func Compare(a, b Component) int {
	if s, t := a.Size(), b.Size(); s != t {
		return t - s
	}
	return a.Key() - b.Key()
}

// Decompose builds the sub-instance of every component along with the
// mapping that lifts its assignments back to the parent, in Components
// order. It is a convenience for callers (like the exact solver) that want
// the split without managing a worker pool.
func Decompose(in *model.Instance) ([]*model.Instance, []*model.SubIndex) {
	comps := Components(in)
	subs := make([]*model.Instance, len(comps))
	maps := make([]*model.SubIndex, len(comps))
	for i, c := range comps {
		subs[i], maps[i] = in.SubInstance(c.Workers, c.Tasks)
	}
	return subs, maps
}

// unionFind is a classic disjoint-set forest with union by size and path
// halving. Node layout convention: workers [0,nW), tasks [nW,nW+nT).
type unionFind struct {
	parent []int
	size   []int
}

// newUnionFind returns a forest of n singleton sets.
func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
