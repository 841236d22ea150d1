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
	// IndexGrid uses a uniform grid packed per build (grid.Pack); the
	// round paths of batch, server and shard build with it.
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
//
// The lists are capacity-clipped windows of two flat arrays, one per side,
// so appending to one list copies it and never reaches another. No list
// is allocated on its own; only the worker-side array's growth adds
// allocations as workers are added.
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
		pts := make([]geo.Point, nT)
		for j, t := range in.Tasks {
			pts[j] = t.Loc
		}
		query = grid.Pack(pts).SearchCircle
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

	// Each worker's hits are appended to the flat array, then filtered and
	// sorted in place. flat may move while it grows, so the windows are
	// cut once it is complete; until then WorkerCand[i] only carries the
	// length of worker i's list.
	var flat []int
	count := make([]int, nT)
	for i, w := range in.Workers {
		s := len(flat)
		flat = query(w.Loc, w.Radius, flat)
		n := s
		for _, j := range flat[s:] {
			if ValidTravel(w, in.Tasks[j], in.Now, in.Travel) {
				flat[n] = j
				n++
				count[j]++
			}
		}
		flat = flat[:n]
		sort.Ints(flat[s:])
		in.WorkerCand[i] = flat[s:n]
	}
	off := 0
	for i, c := range in.WorkerCand {
		n := len(c)
		in.WorkerCand[i] = window(flat, off, off+n)
		off += n
	}

	// TaskCand lists are filled in worker order, so they come out
	// ascending; count[j] turns into task j's fill cursor.
	tflat := make([]int, len(flat))
	off = 0
	for j, n := range count {
		count[j] = off
		off += n
	}
	for i, c := range in.WorkerCand {
		for _, j := range c {
			tflat[count[j]] = i
			count[j]++
		}
	}
	lo := 0
	for j, hi := range count {
		in.TaskCand[j] = window(tflat, lo, hi)
		lo = hi
	}
}

// window returns a[lo:hi] with its capacity clipped, or nil when it is
// empty, as a list no candidate made.
func window(a []int, lo, hi int) []int {
	if hi == lo {
		return nil
	}
	return a[lo:hi:hi]
}
