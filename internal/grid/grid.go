// Package grid implements a uniform-grid spatial index over the unit square.
// Packed once per round (Pack), it answers the candidate queries of every
// round path (model.IndexGrid); it is also the incremental engine's index
// of live workers and tasks. SearchCircle decides membership with
// geo.InDisc, so it returns exactly the points the R-tree and a linear
// scan return (DESIGN.md §4.6; BenchmarkBuildCandidates compares them).
package grid

import (
	"math"

	"casc/internal/geo"
)

// Index is a uniform grid over [0,1]^2. Points outside the unit square are
// clamped into it for cell addressing (their true coordinates are kept for
// the disc test).
type Index struct {
	cells      [][]entry
	resolution int
}

type entry struct {
	p  geo.Point
	id int
}

// New returns an empty grid with resolution x resolution cells. A
// resolution of 0 selects a default suitable for a few thousand points.
func New(resolution int) *Index {
	if resolution <= 0 {
		resolution = 32
	}
	return &Index{
		cells:      make([][]entry, resolution*resolution),
		resolution: resolution,
	}
}

// ForCount returns an empty grid sized so the expected points-per-cell is
// roughly constant (~2) for n uniformly spread points.
func ForCount(n int) *Index {
	if n < 1 {
		n = 1
	}
	res := int(math.Sqrt(float64(n) / 2))
	if res < 4 {
		res = 4
	}
	if res > 1024 {
		res = 1024
	}
	return New(res)
}

// Pack returns a grid sized by ForCount that holds pts, point i under ID
// i. Each cell is a capacity-clipped window of one shared entry array, so
// the build makes the same few allocations for any number of points; an
// Insert into a packed cell copies that cell out of the shared array.
func Pack(pts []geo.Point) *Index {
	g := ForCount(len(pts))
	// next[c] counts cell c's points, then becomes its fill cursor.
	next := make([]int, len(g.cells))
	for _, p := range pts {
		next[g.cellIndex(p)]++
	}
	off := 0
	for c, k := range next {
		next[c] = off
		off += k
	}
	ent := make([]entry, len(pts))
	for i, p := range pts {
		c := g.cellIndex(p)
		ent[next[c]] = entry{p: p, id: i}
		next[c]++
	}
	lo := 0
	for c, hi := range next {
		if hi > lo {
			g.cells[c] = ent[lo:hi:hi]
		}
		lo = hi
	}
	return g
}

func (g *Index) cellIndex(p geo.Point) int {
	return g.cellCoord(p.Y)*g.resolution + g.cellCoord(p.X)
}

// cellCoord maps a coordinate, clamped into [0,1], to its cell column or
// row. The map is monotone in v, which SearchCircle's cell range relies on.
func (g *Index) cellCoord(v float64) int {
	switch {
	case !(v > 0):
		return 0
	case v >= 1:
		return g.resolution - 1
	}
	return min(int(v*float64(g.resolution)), g.resolution-1)
}

// Insert adds a point with the given ID.
func (g *Index) Insert(p geo.Point, id int) {
	ci := g.cellIndex(p)
	g.cells[ci] = append(g.cells[ci], entry{p: p, id: id})
}

// Delete removes one point matching (p, id), reporting success.
func (g *Index) Delete(p geo.Point, id int) bool {
	ci := g.cellIndex(p)
	cell := g.cells[ci]
	for i, e := range cell {
		if e.id == id && e.p == p {
			cell[i] = cell[len(cell)-1]
			g.cells[ci] = cell[:len(cell)-1]
			return true
		}
	}
	return false
}

// SearchCircle appends to dst the IDs of all points p with
// geo.InDisc(p, c, rad), and returns the extended slice.
func (g *Index) SearchCircle(c geo.Point, rad float64, dst []int) []int {
	if !(rad >= 0) {
		return dst
	}
	// A point InDisc keeps has |p.X-c.X| <= rad once rounded (Hypot is
	// never below its larger argument), so it lies in [c.X-rad, c.X+rad]
	// up to a few roundings of c and rad. m is far wider than those, so no
	// such point falls outside the cell range, even on a cell edge.
	m := (1 + math.Abs(c.X) + math.Abs(c.Y) + rad) * 0x1p-48
	x0, x1 := g.cellCoord(c.X-rad-m), g.cellCoord(c.X+rad+m)
	y0, y1 := g.cellCoord(c.Y-rad-m), g.cellCoord(c.Y+rad+m)
	d := geo.NewDisc(c, rad)
	for y := y0; y <= y1; y++ {
		for _, cell := range g.cells[y*g.resolution+x0 : y*g.resolution+x1+1] {
			for _, e := range cell {
				if d.Near(e.p) && geo.InDisc(e.p, c, rad) {
					dst = append(dst, e.id)
				}
			}
		}
	}
	return dst
}
