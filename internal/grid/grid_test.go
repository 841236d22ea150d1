package grid

import (
	"math/rand"
	"sort"
	"testing"

	"casc/internal/geo"
)

type pt struct {
	p  geo.Point
	id int
}

func randPts(r *rand.Rand, n int) []pt {
	out := make([]pt, n)
	for i := range out {
		out[i] = pt{p: geo.Pt(r.Float64(), r.Float64()), id: i}
	}
	return out
}

func bruteCircle(pts []pt, c geo.Point, rad float64) []int {
	var out []int
	for _, e := range pts {
		if geo.InCircle(e.p, c, rad) {
			out = append(out, e.id)
		}
	}
	sort.Ints(out)
	return out
}

// size counts the points stored across all cells.
func size(g *Index) int {
	n := 0
	for _, c := range g.cells {
		n += len(c)
	}
	return n
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmpty(t *testing.T) {
	g := New(0)
	if size(g) != 0 {
		t.Fatal("non-zero length")
	}
	if got := g.SearchCircle(geo.Pt(0.5, 0.5), 0.3, nil); len(got) != 0 {
		t.Errorf("got %v", got)
	}
	if g.Delete(geo.Pt(0.1, 0.1), 3) {
		t.Error("delete succeeded on empty grid")
	}
}

func TestSearchCircleAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randPts(r, 600)
	for _, res := range []int{1, 4, 17, 64} {
		g := New(res)
		for _, e := range pts {
			g.Insert(e.p, e.id)
		}
		for trial := 0; trial < 150; trial++ {
			c := geo.Pt(r.Float64(), r.Float64())
			rad := r.Float64() * 0.4
			got := sortedCopy(g.SearchCircle(c, rad, nil))
			want := bruteCircle(pts, c, rad)
			if !equalInts(got, want) {
				t.Fatalf("res=%d trial=%d: got %d ids, want %d", res, trial, len(got), len(want))
			}
		}
	}
}

func TestBoundaryPoints(t *testing.T) {
	g := New(8)
	corners := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1), geo.Pt(1, 1)}
	for i, p := range corners {
		g.Insert(p, i)
	}
	if size(g) != 4 {
		t.Fatalf("size = %d", size(g))
	}
	got := g.SearchCircle(geo.Pt(1, 1), 0.01, nil)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("corner query got %v", got)
	}
	got = g.SearchCircle(geo.Pt(0.5, 0.5), 0.75, nil)
	if len(got) != 4 {
		t.Errorf("circle over the unit square got %d points", len(got))
	}
}

func TestOutOfRangePointsClamped(t *testing.T) {
	g := New(8)
	g.Insert(geo.Pt(-0.5, 1.7), 1)
	if size(g) != 1 {
		t.Fatal("insert failed")
	}
	// The point is addressable by a query near its clamped cell but only
	// matches when truly within distance.
	if got := g.SearchCircle(geo.Pt(0, 1), 1.0, nil); len(got) != 1 {
		t.Errorf("got %v, want the out-of-range point (distance ~0.86)", got)
	}
	if got := g.SearchCircle(geo.Pt(0, 1), 0.5, nil); len(got) != 0 {
		t.Errorf("got %v, want nothing (distance ~0.86 > 0.5)", got)
	}
	if !g.Delete(geo.Pt(-0.5, 1.7), 1) {
		t.Error("delete of clamped point failed")
	}
}

func TestDelete(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPts(r, 100)
	g := New(10)
	for _, e := range pts {
		g.Insert(e.p, e.id)
	}
	for i := 0; i < 50; i++ {
		if !g.Delete(pts[i].p, pts[i].id) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if size(g) != 50 {
		t.Fatalf("size = %d", size(g))
	}
	got := sortedCopy(g.SearchCircle(geo.Pt(0.5, 0.5), 1.0, nil))
	want := bruteCircle(pts[50:], geo.Pt(0.5, 0.5), 1.0)
	if !equalInts(got, want) {
		t.Error("post-delete query mismatch")
	}
	if g.Delete(pts[0].p, pts[0].id) {
		t.Error("double delete succeeded")
	}
}

func TestNegativeRadius(t *testing.T) {
	g := New(4)
	g.Insert(geo.Pt(0.5, 0.5), 1)
	if got := g.SearchCircle(geo.Pt(0.5, 0.5), -0.1, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

func TestForCount(t *testing.T) {
	tests := []struct{ n, minRes int }{{0, 4}, {10, 4}, {10000, 32}, {10_000_000, 512}}
	for _, tt := range tests {
		g := ForCount(tt.n)
		if g.resolution < tt.minRes {
			t.Errorf("ForCount(%d) resolution %d < %d", tt.n, g.resolution, tt.minRes)
		}
		if g.resolution > 1024 {
			t.Errorf("ForCount(%d) resolution %d exceeds cap", tt.n, g.resolution)
		}
	}
}
