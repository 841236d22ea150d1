// Package grid implements a uniform-grid spatial index over the unit square.
// It is the ablation alternative to the R-tree (see DESIGN.md §4.6): for the
// paper's workloads — points uniformly or Gaussian-clustered in [0,1]^2 and
// circular range queries with radii of 1-20% of the space — a flat grid is
// competitive with a hierarchical index, and the benchmark
// BenchmarkAblationSpatialIndex quantifies the difference.
package grid

import (
	"math"

	"casc/internal/geo"
)

// Index is a uniform grid over [0,1]^2. Points outside the unit square are
// clamped into it for cell addressing (their true coordinates are kept for
// the final distance filter).
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

func (g *Index) cellIndex(p geo.Point) int {
	c := p.Clamp(0, 1)
	x := int(c.X * float64(g.resolution))
	y := int(c.Y * float64(g.resolution))
	if x == g.resolution {
		x--
	}
	if y == g.resolution {
		y--
	}
	return y*g.resolution + x
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

// SearchCircle appends to dst the IDs of all points within the closed disk
// of radius rad centered at c, and returns the extended slice.
func (g *Index) SearchCircle(c geo.Point, rad float64, dst []int) []int {
	if rad < 0 {
		return dst
	}
	step := 1.0 / float64(g.resolution)
	x0 := cellCoord(c.X-rad, g.resolution)
	x1 := cellCoord(c.X+rad, g.resolution)
	y0 := cellCoord(c.Y-rad, g.resolution)
	y1 := cellCoord(c.Y+rad, g.resolution)
	rad2 := rad * rad
	for y := y0; y <= y1; y++ {
		// Skip rows whose vertical band is entirely outside the disk.
		rowRect := geo.Rect{
			Min: geo.Pt(float64(x0)*step, float64(y)*step),
			Max: geo.Pt(float64(x1+1)*step, float64(y+1)*step),
		}
		if !rowRect.IntersectsCircle(c, rad) {
			continue
		}
		for x := x0; x <= x1; x++ {
			for _, e := range g.cells[y*g.resolution+x] {
				if e.p.Dist2(c) <= rad2 {
					dst = append(dst, e.id)
				}
			}
		}
	}
	return dst
}

func cellCoord(v float64, res int) int {
	if v < 0 {
		return 0
	}
	c := int(v * float64(res))
	if c >= res {
		c = res - 1
	}
	return c
}
