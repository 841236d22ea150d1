package model

import (
	"math"
	"slices"
	"testing"

	"casc/internal/geo"
	"casc/internal/grid"
	"casc/internal/rtree"
)

// FuzzIndexAgreement checks the working-area disc test on its own and
// through the three indexes of BuildCandidates.
//
// The raw floats (p, c, rad) may take any magnitude: geo.InDisc and
// geo.DistInDisc must decide as rad >= 0 && Hypot(p-c) <= rad does, the
// latter returning that Hypot, and geo.Disc's
// squared-distance tests must keep what it keeps: Near the point, and
// MayIntersect every box that holds it, among them boxes reaching one ulp
// from p towards c.
//
// The index part stores points on a lattice of step 1/(res·mul), whose
// lines include every cell edge of a res×res grid, and at integer-ratio
// offsets (3-4-5, 5-12-13, 8-15-17, 0-1-1) from a lattice centre, added
// to the centre in floating point or taken on the lattice. It also stores
// p, if finite, and its one-ulp neighbour towards c. For radii at the
// offsets' exact lengths, and for rad about c, rtree.RStar.SearchCircle,
// grid.Index.SearchCircle over a res×res grid and over grid.Pack's, and a
// linear geo.InDisc scan must return the same ID set.
func FuzzIndexAgreement(f *testing.F) {
	// A worker at (0.1, 0.1) with radius 0.5 and a task at (0.4, 0.5):
	// Hypot gives exactly 0.5 and the squared distance exceeds 0.25.
	f.Add(uint8(3), 0.4, 0.5, 0.1, 0.1, 0.5, []byte{0, 2, 2, 1, 0, 0, 2, 0, 1})
	// A point on the edge of cell 0 of a 49-cell grid, at distance rad:
	// c.X-rad rounds into cell 1.
	f.Add(uint8(48), 1.0/49, 0.5, 0.4363735897502143, 0.5, 0.41596542648490814, []byte{1, 20, 24, 1, 1, 2, 6, 2, 3})
	// Hypot is not monotone: a box starting one ulp left of p has a
	// larger Hypot offset from c than p itself.
	f.Add(uint8(15), 0.7915117674637053, 0.620960446629331, 0.0, 0.0, 1.0060232374610523, []byte{2, 5, 5, 0, 1, 1, 0, 9, 3, 1, 2, 2})
	// Extreme magnitudes: subnormal, huge and overflowing offsets.
	f.Add(uint8(7), 3e-320, 4e-320, 0.0, 0.0, 5e-320, []byte{})
	f.Add(uint8(7), 3e200, 4e200, 0.0, 0.0, 5e200, []byte{})
	f.Add(uint8(7), 1.5e308, 0.0, -1.5e308, 0.0, math.MaxFloat64, []byte{})
	f.Add(uint8(7), 0.6, 0.8, 0.0, 0.0, math.Inf(1), []byte{})
	f.Fuzz(func(t *testing.T, res uint8, px, py, cx, cy, rad float64, data []byte) {
		p, c := geo.Pt(px, py), geo.Pt(cx, cy)
		want := rad >= 0 && math.Hypot(px-cx, py-cy) <= rad
		if geo.InDisc(p, c, rad) != want {
			t.Fatalf("InDisc(%v, %v, %v) = %v, Hypot says %v", p, c, rad, !want, want)
		}
		if d, in := geo.DistInDisc(p, c, rad); in != want || math.Float64bits(d) != math.Float64bits(math.Hypot(px-cx, py-cy)) {
			t.Fatalf("DistInDisc(%v, %v, %v) = %v, %v; Hypot says %v, %v", p, c, rad, d, in, math.Hypot(px-cx, py-cy), want)
		}
		d := geo.NewDisc(c, rad)
		if want && !d.Near(p) {
			t.Fatalf("Disc.Near rejected %v, in the disc (c %v, rad %v)", p, c, rad)
		}
		near := geo.Pt(math.Nextafter(px, cx), math.Nextafter(py, cy))
		for _, corner := range []geo.Point{p, geo.Pt(near.X, py), geo.Pt(px, near.Y), near} {
			box := geo.PointRect(p).Union(geo.PointRect(corner))
			if want && !d.MayIntersect(box) {
				t.Fatalf("MayIntersect pruned %v, which holds %v, in the disc (c %v, rad %v)", box, p, c, rad)
			}
		}

		r := 1 + int(res%64)
		mul := 1
		if len(data) > 0 {
			mul += int(data[0] % 4)
			data = data[1:]
		}
		lat := r * mul
		step := func(i int) float64 { return float64(i) / float64(lat) }
		var ci, cj int
		if len(data) >= 2 {
			ci, cj = int(data[0])%(lat+1), int(data[1])%(lat+1)
			data = data[2:]
		}
		centre := geo.Pt(step(ci), step(cj))
		triples := [4][3]int{{3, 4, 5}, {5, 12, 13}, {8, 15, 17}, {0, 1, 1}}
		var pts []geo.Point
		if isFinite(p) {
			pts = append(pts, p)
			if isFinite(near) {
				pts = append(pts, near)
			}
		}
		for ; len(data) >= 3 && len(pts) < 64; data = data[3:] {
			kind, a, b := data[0], int(data[1]), int(data[2])
			if kind%3 == 0 {
				pts = append(pts, geo.Pt(step(a%(lat+1)), step(b%(lat+1))))
				continue
			}
			tr, k := triples[a%4], 1+b%4
			dx, dy := tr[0]*k, tr[1]*k
			if kind&4 != 0 {
				dx, dy = dy, dx
			}
			if kind&8 != 0 {
				dx = -dx
			}
			if kind&16 != 0 {
				dy = -dy
			}
			if kind%3 == 1 {
				pts = append(pts, geo.Pt(centre.X+step(dx), centre.Y+step(dy)))
			} else {
				pts = append(pts, geo.Pt(step(ci+dx), step(cj+dy)))
			}
		}

		items := make([]rtree.Item, len(pts))
		g := grid.New(r)
		for i, q := range pts {
			items[i] = rtree.Item{Loc: q, ID: i}
			g.Insert(q, i)
		}
		tree := rtree.BulkRStar(items, 4)
		packed := grid.Pack(pts)
		check := func(c geo.Point, rad float64) {
			var lin []int
			for i, q := range pts {
				if geo.InDisc(q, c, rad) {
					lin = append(lin, i)
				}
			}
			got := tree.SearchCircle(c, rad, nil)
			slices.Sort(got)
			if !slices.Equal(got, lin) {
				t.Fatalf("RStar.SearchCircle(%v, %v) = %v, linear InDisc scan %v (points %v)", c, rad, got, lin, pts)
			}
			got = g.SearchCircle(c, rad, nil)
			slices.Sort(got)
			if !slices.Equal(got, lin) {
				t.Fatalf("grid(%d).SearchCircle(%v, %v) = %v, linear InDisc scan %v (points %v)", r, c, rad, got, lin, pts)
			}
			got = packed.SearchCircle(c, rad, nil)
			slices.Sort(got)
			if !slices.Equal(got, lin) {
				t.Fatalf("grid.Pack(points).SearchCircle(%v, %v) = %v, linear InDisc scan %v (points %v)", c, rad, got, lin, pts)
			}
		}
		for _, tr := range triples {
			for k := 1; k <= 4; k++ {
				check(centre, step(tr[2]*k))
			}
		}
		if isFinite(c) {
			check(c, rad)
		}
	})
}

func isFinite(p geo.Point) bool {
	return !math.IsInf(p.X, 0) && !math.IsNaN(p.X) && !math.IsInf(p.Y, 0) && !math.IsNaN(p.Y)
}
