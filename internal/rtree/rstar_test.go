package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"casc/internal/geo"
)

func linearCircle(items []Item, c geo.Point, rad float64) []int {
	var out []int
	for _, it := range items {
		if geo.InDisc(it.Loc, c, rad) {
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
			items[i] = Item{Loc: geo.Pt(r.Float64(), r.Float64()), ID: i}
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
			items[i] = Item{Loc: geo.Pt(0.5, 0.5), ID: i}
		}
		qs := []geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.505, 0.5), geo.Pt(0.52, 0.5)}
		requireTree(t, BulkRStar(items, fanout), items, qs, 0.01, "coincident")
	}
}

// TestRStarSearchCircleAllocs pins a query at zero allocations: the
// traversal stack starts in a fixed array, and dst has room for the hits.
// A multi-level tree makes every query descend past the root.
func TestRStarSearchCircleAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := make([]Item, 2000)
	for i := range items {
		items[i] = Item{Loc: geo.Pt(r.Float64(), r.Float64()), ID: i}
	}
	tr := BulkRStar(items, 0)
	if tr.height < 3 {
		t.Fatalf("height %d, want a tree of three levels or more", tr.height)
	}
	dst := make([]int, 0, len(items))
	var hits int
	allocs := testing.AllocsPerRun(100, func() {
		c := geo.Pt(r.Float64(), r.Float64())
		dst = tr.SearchCircle(c, 0.1, dst[:0])
		hits += len(dst)
	})
	if allocs != 0 {
		t.Fatalf("SearchCircle made %v allocations per query, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("no query found a point")
	}
}

// TestRStarNonMonotoneHypot builds a two-leaf tree whose first leaf's box
// starts one ulp left of an item at distance exactly rad from the query
// centre. Hypot of the box's offset exceeds Hypot of the item's (Hypot is
// not monotone), so pruning internal entries on Hypot dropped the item.
func TestRStarNonMonotoneHypot(t *testing.T) {
	items := []Item{
		{Loc: geo.Pt(0.7915117674637053, 0.620960446629331), ID: 0},
		{Loc: geo.Pt(0.7915117674637052, 0.9), ID: 1},
		{Loc: geo.Pt(0.8, 0.95), ID: 2},
		{Loc: geo.Pt(0.85, 0.97), ID: 3},
		{Loc: geo.Pt(5, 5), ID: 4},
		{Loc: geo.Pt(5.1, 5), ID: 5},
		{Loc: geo.Pt(5, 5.1), ID: 6},
		{Loc: geo.Pt(5.1, 5.1), ID: 7},
	}
	tr := BulkRStar(items, 4)
	if tr.height != 2 {
		t.Fatalf("height %d, want 2", tr.height)
	}
	c, rad := geo.Pt(0, 0), math.Hypot(items[0].Loc.X, items[0].Loc.Y)
	requireSameIDs(t, tr.SearchCircle(c, rad, nil), []int{0}, "boundary item")
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
			items = append(items, Item{Loc: p, ID: len(items)})
			qs = append(qs, p)
		}
		qs = append(qs, geo.Pt(0.5, 0.5))
		tr := BulkRStar(items, fanout)
		for _, rad := range []float64{0, 0.05, 0.3, 2} {
			requireTree(t, tr, items, qs, rad, "fuzz")
		}
	})
}
