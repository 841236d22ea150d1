package model

import (
	"math"
	"testing"

	"casc/internal/coop"
)

// FuzzGroupScore drives the incremental GroupScore accumulator through an
// arbitrary join/leave/swap sequence and cross-checks Q against the direct
// Equation 2 computation after every step. Run with
// `go test -fuzz=FuzzGroupScore ./internal/model` to explore.
func FuzzGroupScore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	f.Add([]byte{})

	const n = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		q := coop.NewMatrix(n)
		// Deterministic quality values derived from the pair indices.
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				q.Set(i, k, float64((i*7+k*13)%100)/100)
			}
		}
		in := &Instance{Quality: q, B: 2}
		g := in.NewGroupScore(5)
		member := make([]bool, n)
		count := 0
		for _, b := range data {
			w := int(b) % n
			if member[w] {
				delta := g.LeaveDelta(w)
				before := g.Q()
				g.Leave(w)
				member[w] = false
				count--
				if math.Abs((before-g.Q())-delta) > 1e-9 {
					t.Fatalf("LeaveDelta inconsistent: %v vs %v", before-g.Q(), delta)
				}
			} else if count < 5 {
				delta := g.JoinDelta(w)
				before := g.Q()
				g.Join(w)
				member[w] = true
				count++
				if math.Abs((g.Q()-before)-delta) > 1e-9 {
					t.Fatalf("JoinDelta inconsistent: %v vs %v", g.Q()-before, delta)
				}
			}
			// Cross-check against the direct computation.
			var ws []int
			for i, m := range member {
				if m {
					ws = append(ws, i)
				}
			}
			want := in.GroupQuality(ws, 5)
			if math.Abs(g.Q()-want) > 1e-9 {
				t.Fatalf("incremental Q %v, direct %v (group %v)", g.Q(), want, ws)
			}
		}
	})
}

// FuzzGroupScoreCache drives a GroupScore through random join/leave
// sequences over an asymmetric quality model with repeated values and ±0,
// and after every step requires the cached LeaveDelta and SwapDelta and the
// one-pass BestSwap to return the bits of the uncached formulas, BestSwap
// picking the first maximising member. The group's scratch slot is fuzzed
// too, so groups that outgrow it are covered. Run with
// `go test -fuzz=FuzzGroupScoreCache ./internal/model` to explore.
func FuzzGroupScoreCache(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 1, 3}, uint8(4), uint8(2))
	f.Add([]byte{2, 2, 2, 2}, []byte{0, 1, 2, 3, 0, 4, 1, 5, 2, 6}, uint8(3), uint8(3))
	f.Add([]byte{0, 1}, []byte{7, 6, 5, 4, 3, 2, 1, 0, 7, 6, 5}, uint8(6), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(2), uint8(1))

	const n = 8
	vals := []float64{0, math.Copysign(0, -1), 0.25, 0.25, 0.1, 1.0 / 3, 0.7, 0.7}
	f.Fuzz(func(t *testing.T, table, ops []byte, capacity, slot uint8) {
		q := coop.Func{N: n, F: func(i, k int) float64 {
			if len(table) == 0 {
				return 0.25
			}
			return vals[int(table[(i*n+k)%len(table)])%len(vals)]
		}}
		in := &Instance{Quality: q, B: 2}
		c := 2 + int(capacity)%5
		g := in.NewGroupScore(c)
		g.Reset(in, c, make([]float64, 2*(int(slot)%(c+1))))
		for step, b := range ops {
			w := int(b) % n
			switch {
			case g.Contains(w):
				g.Leave(w)
			case g.Len() < c:
				g.Join(w)
			}
			requireUncachedBits(t, g, step)
		}
	})
}

// requireUncachedBits checks every cached read of g against the uncached
// arithmetic: LeaveDelta of each member, SwapDelta of each (member,
// outsider) pair, and BestSwap of each outsider.
func requireUncachedBits(t *testing.T, g *GroupScore, step int) {
	t.Helper()
	n := g.in.Quality.NumWorkers()
	for _, w := range g.members {
		want := g.Q() - g.qOf(len(g.members)-1, g.pairSum-g.crossSum(w, g.posOf(w)))
		if got := g.LeaveDelta(w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: LeaveDelta(%d) = %v, uncached %v (members %v)", step, w, got, want, g.members)
		}
	}
	for in := 0; in < n; in++ {
		if g.Contains(in) {
			continue
		}
		wantDelta, wantOut := 0.0, -1
		for _, out := range g.members {
			sum := g.pairSum - g.crossSum(out, g.posOf(out))
			var cs float64
			for _, m := range g.members {
				if m != out && m != in {
					cs += g.in.Quality.Quality(in, m) + g.in.Quality.Quality(m, in)
				}
			}
			sum += cs
			want := g.qOf(len(g.members), sum) - g.Q()
			if got := g.SwapDelta(out, in); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: SwapDelta(%d, %d) = %v, uncached %v (members %v)", step, out, in, got, want, g.members)
			}
			if wantOut < 0 || want > wantDelta {
				wantDelta, wantOut = want, out
			}
		}
		gotDelta, gotOut := g.BestSwap(in)
		if gotOut != wantOut || math.Float64bits(gotDelta) != math.Float64bits(wantDelta) {
			t.Fatalf("step %d: BestSwap(%d) = (%v, %d), want first maximiser (%v, %d) (members %v)",
				step, in, gotDelta, gotOut, wantDelta, wantOut, g.members)
		}
	}
}
