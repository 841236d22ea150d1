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
//casclint:ignore deadcode reference oracle: TestCircleRectConsistency checks IntersectsCircle against it
func (r Rect) Contains(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// DistToPoint returns the minimum distance from p to any point of r
// (zero when p is inside r).
func (r Rect) DistToPoint(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return math.Hypot(dx, dy)
}

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

// IntersectsCircle reports whether r intersects the closed disk centered at
// c with radius rad. This is the primitive behind working-area range queries:
// a worker with radius rad at c can reach tasks whose index rectangles
// satisfy this predicate.
func (r Rect) IntersectsCircle(c Point, rad float64) bool {
	if rad < 0 {
		return false
	}
	return r.DistToPoint(c) <= rad
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Min, r.Max)
}

// InCircle reports whether p lies within (boundary inclusive) the disk
// centered at c with radius rad.
func InCircle(p, c Point, rad float64) bool {
	return rad >= 0 && p.Dist2(c) <= rad*rad
}

// TravelTime returns the time a worker moving at speed v takes to cover the
// distance from a to b. It returns +Inf when v <= 0 and the points differ,
// and 0 when the points coincide (even for v == 0).
func TravelTime(a, b Point, v float64) float64 {
	d := a.Dist(b)
	if d == 0 {
		return 0
	}
	if v <= 0 {
		return math.Inf(1)
	}
	return d / v
}
