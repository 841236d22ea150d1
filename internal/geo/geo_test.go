package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{"same point", Pt(0.3, 0.7), Pt(0.3, 0.7), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Dist(tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDistProperties(t *testing.T) {
	symmetric := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d1, d2 := a.Dist(b), b.Dist(a)
		if math.IsInf(d1, 0) || math.IsInf(d2, 0) {
			return math.IsInf(d1, 0) && math.IsInf(d2, 0)
		}
		return math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("distance not symmetric: %v", err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		if math.IsInf(a.Dist(b), 0) || math.IsInf(b.Dist(c), 0) || math.IsInf(a.Dist(c), 0) {
			return true // huge random inputs can overflow; not interesting
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9*(1+a.Dist(c))
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality violated: %v", err)
	}
	dist2Consistent := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d := a.Dist(b)
		d2 := a.Dist2(b)
		if math.IsInf(d, 0) || math.IsInf(d2, 0) {
			return true
		}
		return math.Abs(d*d-d2) <= 1e-9*(1+d2)
	}
	if err := quick.Check(dist2Consistent, nil); err != nil {
		t.Errorf("Dist2 inconsistent with Dist: %v", err)
	}
}

func TestClamp(t *testing.T) {
	p := Pt(-0.5, 1.5).Clamp(0, 1)
	if p != Pt(0, 1) {
		t.Errorf("Clamp = %v, want (0,1)", p)
	}
	q := Pt(0.25, 0.75).Clamp(0, 1)
	if q != Pt(0.25, 0.75) {
		t.Errorf("Clamp changed in-range point: %v", q)
	}
}

func TestRectUnionEnlargement(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	b := Rect{Min: Pt(2, 2), Max: Pt(3, 3)}
	want := Rect{Min: Pt(0, 0), Max: Pt(3, 3)}
	if u := a.Union(b); u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if u := a.Union(Rect{Min: Pt(0.2, 0.2), Max: Pt(0.8, 0.8)}); u != a {
		t.Errorf("Union with a contained rect = %v, want %v", u, a)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(1, 1)) || !r.Contains(Pt(0.5, 0.5)) {
		t.Error("Contains should include boundary and interior")
	}
	if r.Contains(Pt(1.001, 0.5)) {
		t.Error("Contains accepted outside point")
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(0.5, 0.5), 0},
		{Pt(2, 0.5), 1},
		{Pt(0.5, -2), 2},
		{Pt(4, 5), 5}, // corner at (1,1): 3-4-5 triangle
	}
	for _, tt := range tests {
		if got := r.DistToPoint(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestIntersectsCircle(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	if !r.IntersectsCircle(Pt(0.5, 0.5), 0.01) {
		t.Error("circle inside rect should intersect")
	}
	if !r.IntersectsCircle(Pt(2, 0.5), 1.0) {
		t.Error("circle touching edge should intersect")
	}
	if r.IntersectsCircle(Pt(2, 0.5), 0.99) {
		t.Error("circle short of edge should not intersect")
	}
	if r.IntersectsCircle(Pt(0.5, 0.5), -1) {
		t.Error("negative radius must never intersect")
	}
}

func TestInCircle(t *testing.T) {
	if !InCircle(Pt(0.3, 0.4), Pt(0, 0), 0.5) {
		t.Error("boundary point should be in circle")
	}
	if InCircle(Pt(0.3, 0.4), Pt(0, 0), 0.49) {
		t.Error("outside point reported in circle")
	}
	if InCircle(Pt(0, 0), Pt(0, 0), -0.1) {
		t.Error("negative radius circle contains nothing")
	}
}

func TestTravelTime(t *testing.T) {
	if got := TravelTime(Pt(0, 0), Pt(0, 1), 0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("TravelTime = %v, want 2", got)
	}
	if got := TravelTime(Pt(0, 0), Pt(0, 1), 0); !math.IsInf(got, 1) {
		t.Errorf("TravelTime with zero speed = %v, want +Inf", got)
	}
	if got := TravelTime(Pt(0.2, 0.2), Pt(0.2, 0.2), 0); got != 0 {
		t.Errorf("TravelTime between identical points = %v, want 0", got)
	}
}

func TestCircleRectConsistency(t *testing.T) {
	// Property: if a point is in the circle and in the rect, the rect must
	// intersect the circle.
	f := func(px, py, cx, cy, rad float64) bool {
		rad = math.Mod(math.Abs(rad), 10)
		p := Pt(math.Mod(px, 10), math.Mod(py, 10))
		c := Pt(math.Mod(cx, 10), math.Mod(cy, 10))
		r := Rect{Min: Pt(-5, -5), Max: Pt(5, 5)}
		if InCircle(p, c, rad) && r.Contains(p) {
			return r.IntersectsCircle(c, rad)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("circle/rect consistency violated: %v", err)
	}
}
