package model

import (
	"fmt"
	"sort"

	"casc/internal/geo"
	"casc/internal/grid"
	"casc/internal/rtree"
)

// IndexKind selects the spatial index used to retrieve the candidate tasks
// of each worker (Algorithm 1, lines 4-5).
type IndexKind int

const (
	// IndexRTree uses an STR-bulk-loaded packed R*-tree (the paper's
	// choice of index; see rtree.RStar for the layout).
	IndexRTree IndexKind = iota
	// IndexGrid uses a uniform grid (ablation alternative).
	IndexGrid
	// IndexLinear scans all tasks per worker (ablation baseline).
	IndexLinear
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case IndexRTree:
		return "rtree"
	case IndexGrid:
		return "grid"
	case IndexLinear:
		return "linear"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// BuildCandidates populates in.WorkerCand and in.TaskCand: for every worker
// it runs a circular range query with radius r_i centered at l_i over the
// task locations, then filters by the deadline-reachability condition of
// Definition 3. Every index decides the disc with geo.InDisc, so all three
// return the same ID set, and the lists, sorted ascending, are identical
// whichever index built them.
func (in *Instance) BuildCandidates(kind IndexKind) {
	nW, nT := len(in.Workers), len(in.Tasks)
	in.WorkerCand = make([][]int, nW)
	in.TaskCand = make([][]int, nT)

	var query func(c geo.Point, rad float64, dst []int) []int
	switch kind {
	case IndexRTree:
		items := make([]rtree.Item, nT)
		for j, t := range in.Tasks {
			items[j] = rtree.Item{Loc: t.Loc, ID: j}
		}
		tr := rtree.BulkRStar(items, 0)
		query = tr.SearchCircle
	case IndexGrid:
		g := grid.ForCount(nT)
		for j, t := range in.Tasks {
			g.Insert(t.Loc, j)
		}
		query = g.SearchCircle
	case IndexLinear:
		query = func(c geo.Point, rad float64, dst []int) []int {
			d := geo.NewDisc(c, rad)
			for j, t := range in.Tasks {
				if d.Near(t.Loc) && geo.InDisc(t.Loc, c, rad) {
					dst = append(dst, j)
				}
			}
			return dst
		}
	default:
		panic(fmt.Sprintf("model: unknown index kind %d", kind))
	}

	var buf []int
	for i, w := range in.Workers {
		buf = query(w.Loc, w.Radius, buf[:0])
		var cand []int
		for _, j := range buf {
			if ValidTravel(w, in.Tasks[j], in.Now, in.Travel) {
				cand = append(cand, j)
			}
		}
		sort.Ints(cand)
		in.WorkerCand[i] = cand
		for _, j := range cand {
			in.TaskCand[j] = append(in.TaskCand[j], i)
		}
	}
	// TaskCand lists are built in worker order, already ascending.
}
