package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"casc/internal/geo"
)

func linearCircle(items []Item, c geo.Point, rad float64) []int {
	var out []int
	for _, it := range items {
		if it.Rect.IntersectsCircle(c, rad) {
			out = append(out, it.ID)
		}
	}
	sort.Ints(out)
	return out
}

func requireSameIDs(t *testing.T, got, want []int, label string) {
	t.Helper()
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// requireTree checks the structural invariants and every query of qs
// against a linear scan of items.
func requireTree(t *testing.T, tr *RStar, items []Item, qs []geo.Point, rad float64, label string) {
	t.Helper()
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if tr.size != len(items) {
		t.Fatalf("%s: size %d, want %d", label, tr.size, len(items))
	}
	for _, c := range qs {
		requireSameIDs(t, tr.SearchCircle(c, rad, nil), linearCircle(items, c, rad), label)
	}
}

// TestRStarBulkVsLinear checks STR packing into the packed arena across
// sizes that cover the single-leaf root, one-level, and multi-level cases,
// and with coincident points (every entry rectangle identical).
func TestRStarBulkVsLinear(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: geo.PointRect(geo.Pt(r.Float64(), r.Float64())), ID: i}
		}
		tr := BulkRStar(items, 0)
		for q := 0; q < 20; q++ {
			c := []geo.Point{geo.Pt(r.Float64(), r.Float64())}
			requireTree(t, tr, items, c, r.Float64()*0.4, "random")
		}
	}
	for _, fanout := range []int{4, 16} {
		items := make([]Item, 100)
		for i := range items {
			items[i] = Item{Rect: geo.PointRect(geo.Pt(0.5, 0.5)), ID: i}
		}
		qs := []geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.505, 0.5), geo.Pt(0.52, 0.5)}
		requireTree(t, BulkRStar(items, fanout), items, qs, 0.01, "coincident")
	}
}

// FuzzRStarOps packs fuzz-decoded points (two bytes each; the first byte
// picks the fan-out) with BulkRStar and cross-checks circular queries at
// every point, and a few radii, against a linear scan, plus the structural
// invariants.
func FuzzRStarOps(f *testing.F) {
	f.Add([]byte{0, 10, 20, 30, 40, 15, 25})
	f.Add([]byte{12, 1, 2, 3, 4, 5, 6, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{4, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		fanout := 4
		if len(data) > 0 {
			fanout += int(data[0] % 13)
			data = data[1:]
		}
		var items []Item
		var qs []geo.Point
		for i := 0; i+1 < len(data); i += 2 {
			p := geo.Pt(float64(data[i])/255, float64(data[i+1])/255)
			items = append(items, Item{Rect: geo.PointRect(p), ID: len(items)})
			qs = append(qs, p)
		}
		qs = append(qs, geo.Pt(0.5, 0.5))
		tr := BulkRStar(items, fanout)
		for _, rad := range []float64{0, 0.05, 0.3, 2} {
			requireTree(t, tr, items, qs, rad, "fuzz")
		}
	})
}
