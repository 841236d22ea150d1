// Package geo provides the small amount of planar geometry the CA-SC
// system needs: points in the unit square, Euclidean distances, axis-aligned
// rectangles for spatial indexing, and circle/rectangle predicates used by
// working-area range queries.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2D data space. The paper maps all locations
// (both real Meetup records and synthetic data) into [0,1]^2, but nothing in
// this package assumes that range.
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparisons against squared radii.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns the translation of p by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{X: p.X + dx, Y: p.Y + dy} }

// Clamp returns p with both coordinates clamped to [lo, hi].
func (p Point) Clamp(lo, hi float64) Point {
	return Point{X: clamp(p.X, lo, hi), Y: clamp(p.Y, lo, hi)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f,%.4f)", p.X, p.Y) }

// Rect is a closed axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
// The zero Rect is the degenerate rectangle at the origin.
type Rect struct {
	Min, Max Point
}

// PointRect returns the degenerate rectangle containing only p.
func PointRect(p Point) Rect { return Rect{Min: p, Max: p} }

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{X: math.Min(r.Min.X, s.Min.X), Y: math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{X: math.Max(r.Max.X, s.Max.X), Y: math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
//
//casclint:ignore deadcode reference oracle: TestCircleRectConsistency checks Disc.MayIntersect against it
func (r Rect) Contains(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// axisDist returns the distance from v to [lo, hi] along one axis. It
// rounds like v's offset from a point of [lo, hi], and is never larger.
func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Min, r.Max)
}

// InDisc reports whether p lies in the closed disc centred at c with
// radius rad: the working-area term of Definition 3. It is the only test
// of disc membership on a candidate path (Valid, the R-tree, the grid, the
// linear scan and the incremental engine), so every path admits the same
// pairs to the bit. A negative or NaN rad admits nothing, since Hypot is
// never negative.
func InDisc(p, c Point, rad float64) bool {
	return math.Hypot(p.X-c.X, p.Y-c.Y) <= rad
}

// DistInDisc is InDisc that also returns the distance it tested, for a
// caller that needs both from one Hypot. InDisc spells the test out again
// so that it stays inlinable, Hypot included, in the index loops.
func DistInDisc(p, c Point, rad float64) (float64, bool) {
	d := math.Hypot(p.X-c.X, p.Y-c.Y)
	return d, d <= rad
}

// Disc is the disc of one range query, prepared to reject far points and
// prune boxes on squared distance ahead of InDisc.
type Disc struct {
	c Point
	// far2 exceeds the rounded dx²+dy² of every point InDisc keeps. Hypot
	// errs by under 4 units of 2^-53 relative, the squares and sum by 3
	// more; the slack rad²·2^-48 is 32 such units, and 2^-1000 covers
	// underflow. An overflowing rad² makes far2 +Inf, which prunes nothing.
	far2 float64
}

// NewDisc prepares the disc centred at c with radius rad.
func NewDisc(c Point, rad float64) Disc {
	r2 := rad * rad
	return Disc{c: c, far2: r2 + r2*0x1p-48 + 0x1p-1000}
}

// Near reports false only for points InDisc rejects. It spares them the
// Hypot; InDisc decides the rest.
func (d Disc) Near(p Point) bool {
	dx, dy := p.X-d.c.X, p.Y-d.c.Y
	return !(dx*dx+dy*dy > d.far2)
}

// MayIntersect reports false only when no point of r is in the disc. Its
// squared distance from c to r is at most Near's for any point of r;
// pruning on Hypot would not be safe, because Hypot is not monotone in its
// arguments.
func (d Disc) MayIntersect(r Rect) bool {
	dx := axisDist(d.c.X, r.Min.X, r.Max.X)
	dy := axisDist(d.c.Y, r.Min.Y, r.Max.Y)
	return !(dx*dx+dy*dy > d.far2)
}

// TravelTimeAt returns the time a worker moving at speed v takes to cover
// the distance d, which the caller measured (one Hypot usually serves the
// disc test too). It returns +Inf when v <= 0 and d > 0, and 0 when d is 0
// (even for v == 0).
func TravelTimeAt(d, v float64) float64 {
	if d == 0 {
		return 0
	}
	if v <= 0 {
		return math.Inf(1)
	}
	return d / v
}
