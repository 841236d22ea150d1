package assign

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"casc/internal/model"
)

// This file pins the sort-free bounds (Upper, UpperTight, Bounds) to the
// sorting implementation they replaced: refUpper, refUpperTight, refBounds
// and refCoCandidateSets below are the pre-change code, kept verbatim apart
// from the ref prefix. The property and fuzz tests assert identical
// Float64bits and an identical multiset of quality calls.

func refUpper(in *model.Instance) float64 {
	nW := len(in.Workers)
	B := in.B
	if B < 2 {
		return 0
	}
	qhat := make([]float64, nW)
	coworkers := refCoCandidateSets(in)
	topQ := make([]float64, 0, 64)
	for w := 0; w < nW; w++ {
		peers := coworkers[w]
		if len(peers) < B-1 {
			continue // cannot be in any feasible group
		}
		topQ = topQ[:0]
		for _, k := range peers {
			topQ = append(topQ, in.Quality.Quality(w, k))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(topQ)))
		var sum float64
		for i := 0; i < B-1; i++ {
			sum += topQ[i]
		}
		qhat[w] = sum / float64(B-1)
	}

	var taskSide float64
	var cq []float64
	for t := range in.Tasks {
		cand := in.TaskCand[t]
		if len(cand) < B {
			continue
		}
		cq = cq[:0]
		for _, w := range cand {
			cq = append(cq, qhat[w])
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(cq)))
		take := in.Tasks[t].Capacity
		if take > len(cq) {
			take = len(cq)
		}
		for i := 0; i < take; i++ {
			taskSide += cq[i]
		}
	}

	var workerSide float64
	for _, q := range qhat {
		workerSide += q
	}
	if workerSide < taskSide {
		return workerSide
	}
	return taskSide
}

func refUpperTight(in *model.Instance) float64 {
	B := in.B
	if B < 2 {
		return 0
	}
	var taskSide float64
	qs := make([]float64, 0, 64)
	qhatLocal := make([]float64, 0, 64)
	for t := range in.Tasks {
		cand := in.TaskCand[t]
		if len(cand) < B {
			continue
		}
		qhatLocal = qhatLocal[:0]
		for _, w := range cand {
			qs = qs[:0]
			for _, k := range cand {
				if k != w {
					qs = append(qs, in.Quality.Quality(w, k))
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(qs)))
			var sum float64
			for i := 0; i < B-1; i++ {
				sum += qs[i]
			}
			qhatLocal = append(qhatLocal, sum/float64(B-1))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(qhatLocal)))
		take := in.Tasks[t].Capacity
		if take > len(qhatLocal) {
			take = len(qhatLocal)
		}
		for i := 0; i < take; i++ {
			taskSide += qhatLocal[i]
		}
	}
	global := refUpper(in)
	if taskSide < global {
		return taskSide
	}
	return global
}

func refBounds(in *model.Instance) []WorkerBounds {
	nW := len(in.Workers)
	B := in.B
	out := make([]WorkerBounds, nW)
	if B < 2 {
		return out
	}
	coworkers := refCoCandidateSets(in)
	qs := make([]float64, 0, 64)
	for w := 0; w < nW; w++ {
		peers := coworkers[w]
		if len(peers) < B-1 {
			continue
		}
		qs = qs[:0]
		for _, k := range peers {
			qs = append(qs, in.Quality.Quality(w, k))
		}
		sort.Float64s(qs)
		var lo, hi float64
		for i := 0; i < B-1; i++ {
			lo += qs[i]
			hi += qs[len(qs)-1-i]
		}
		out[w] = WorkerBounds{
			QHat:     hi / float64(B-1),
			QCheck:   lo / float64(B-1),
			Feasible: true,
		}
	}
	return out
}

// refCoCandidateSets returns, per worker, the sorted distinct workers sharing
// at least one candidate task with it.
func refCoCandidateSets(in *model.Instance) [][]int {
	nW := len(in.Workers)
	out := make([][]int, nW)
	seen := make([]int, nW) // visit stamp per (worker, stamp) pair
	for i := range seen {
		seen[i] = -1
	}
	for w := 0; w < nW; w++ {
		var peers []int
		for _, t := range in.WorkerCand[w] {
			for _, k := range in.TaskCand[t] {
				if k != w && seen[k] != w {
					seen[k] = w
					peers = append(peers, k)
				}
			}
		}
		sort.Ints(peers)
		out[w] = peers
	}
	return out
}

// palette quality values: ties, both zeros, a NaN, negatives and a spread
// of distinct values. Which pairs see which value is drawn per instance.
var paletteQ = []float64{0.5, 0.5, 0.25, 0, math.Copysign(0, -1), math.NaN(), 1, -0.125, 0.75, 0.3}

// tableQuality is a dense, asymmetric quality table that records every
// call, so the tests can compare the multiset of evaluated pairs.
type tableQuality struct {
	n     int
	q     []float64
	calls map[[2]int]int
}

func (m *tableQuality) Quality(i, k int) float64 {
	if m.calls != nil {
		m.calls[[2]int{i, k}]++
	}
	return m.q[i*m.n+k]
}

func (m *tableQuality) NumWorkers() int { return m.n }

// boundsInstance draws a random candidate graph directly (no geometry), so
// it reaches shapes the spatial generator rarely does: isolated workers,
// workers with fewer than B−1 peers, tasks with fewer than B candidates
// and capacities at or above the candidate count. With palette set, half
// the qualities come from paletteQ (ties, ±0, NaN) instead of being
// distinct random values.
func boundsInstance(r *rand.Rand, nW, nT, b int, edgeP float64, capMode int, palette bool) *model.Instance {
	tq := &tableQuality{n: nW, q: make([]float64, nW*nW)}
	for i := range tq.q {
		if palette && r.Intn(2) == 0 {
			tq.q[i] = paletteQ[r.Intn(len(paletteQ))]
		} else {
			tq.q[i] = r.Float64()
		}
	}
	in := &model.Instance{Quality: tq, B: b}
	in.Workers = make([]model.Worker, nW)
	for i := range in.Workers {
		in.Workers[i].ID = i
	}
	in.Tasks = make([]model.Task, nT)
	in.WorkerCand = make([][]int, nW)
	in.TaskCand = make([][]int, nT)
	for t := range in.Tasks {
		in.Tasks[t].ID = t
		for w := 0; w < nW; w++ {
			if r.Float64() < edgeP {
				in.TaskCand[t] = append(in.TaskCand[t], w)
				in.WorkerCand[w] = append(in.WorkerCand[w], t)
			}
		}
		switch capMode % 4 {
		case 0: // the paper's shape: a few seats above B
			in.Tasks[t].Capacity = b + r.Intn(3)
		case 1: // capacity at or above the candidate count
			in.Tasks[t].Capacity = len(in.TaskCand[t]) + r.Intn(3)
		case 2: // degenerate capacities, including none at all
			in.Tasks[t].Capacity = r.Intn(b+1) - 1
		default: // large capacities: top-k buffers that regrow
			in.Tasks[t].Capacity = 17 + r.Intn(8)
		}
	}
	return in
}

// checkBoundsEquivalence asserts that Upper, UpperTight and Bounds return
// the reference bits and evaluate the same multiset of quality pairs.
func checkBoundsEquivalence(t *testing.T, in *model.Instance) {
	t.Helper()
	tq := in.Quality.(*tableQuality)
	calls := func(f func()) map[[2]int]int {
		tq.calls = map[[2]int]int{}
		f()
		c := tq.calls
		tq.calls = nil
		return c
	}
	sameCalls := func(label string, got, want map[[2]int]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct quality pairs, reference %d", label, len(got), len(want))
		}
		for p, n := range want {
			if got[p] != n {
				t.Fatalf("%s: pair %v evaluated %d times, reference %d", label, p, got[p], n)
			}
		}
	}

	var got, want float64
	cg := calls(func() { got = Upper(in) })
	cw := calls(func() { want = refUpper(in) })
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Upper = %v (%#x), reference %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	sameCalls("Upper", cg, cw)

	cg = calls(func() { got = UpperTight(in) })
	cw = calls(func() { want = refUpperTight(in) })
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("UpperTight = %v (%#x), reference %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	sameCalls("UpperTight", cg, cw)

	var gb, wb []WorkerBounds
	cg = calls(func() { gb = Bounds(in) })
	cw = calls(func() { wb = refBounds(in) })
	for w := range wb {
		g, r := gb[w], wb[w]
		if g.Feasible != r.Feasible ||
			math.Float64bits(g.QHat) != math.Float64bits(r.QHat) ||
			math.Float64bits(g.QCheck) != math.Float64bits(r.QCheck) {
			t.Fatalf("Bounds[%d] = %+v, reference %+v", w, g, r)
		}
	}
	sameCalls("Bounds", cg, cw)
}

func TestUpperMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 300; trial++ {
		b := 2 + r.Intn(7)
		if trial%25 == 0 {
			b = 18 + r.Intn(4) // B−1 beyond the top-k buffer's initial room
		}
		in := boundsInstance(r, 1+r.Intn(40), 1+r.Intn(15), b, 0.05+r.Float64()*0.4, trial, trial%2 == 0)
		checkBoundsEquivalence(t, in)
	}
}

func TestUpperMatchesReferenceSpatial(t *testing.T) {
	// The spatial generator with the Synthetic model: the batch loop's shape.
	r := rand.New(rand.NewSource(132))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(r, 60+r.Intn(120), 10+r.Intn(40), 2+r.Intn(4))
		tq := &tableQuality{n: len(in.Workers), q: make([]float64, len(in.Workers)*len(in.Workers))}
		for i := range in.Workers {
			for k := range in.Workers {
				tq.q[i*tq.n+k] = in.Quality.Quality(i, k)
			}
		}
		in.Quality = tq
		checkBoundsEquivalence(t, in)
	}
}

func FuzzUpperEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(6), uint8(0), uint8(40), true)
	f.Add(int64(2), uint8(2), uint8(5), uint8(3), uint8(1), uint8(90), true)
	f.Add(int64(3), uint8(8), uint8(30), uint8(10), uint8(3), uint8(60), false)
	f.Add(int64(4), uint8(5), uint8(12), uint8(12), uint8(2), uint8(10), true)
	f.Fuzz(func(t *testing.T, seed int64, b, nW, nT, capMode, density uint8, palette bool) {
		r := rand.New(rand.NewSource(seed))
		in := boundsInstance(r, int(nW%48), int(nT%16), 2+int(b%7), float64(density%101)/100, int(capMode), palette)
		checkBoundsEquivalence(t, in)
	})
}

func TestUpperAllocsConstant(t *testing.T) {
	// Upper allocates its per-round scratch once (q̂, the visit stamps, the
	// pair buffer, the top-k buffer) — never per worker or per task — so
	// its allocation count does not grow with the instance.
	r := rand.New(rand.NewSource(133))
	small := randomInstance(r, 120, 30, 3)
	large := randomInstance(r, 600, 150, 3)
	a := testing.AllocsPerRun(20, func() { Upper(small) })
	b := testing.AllocsPerRun(20, func() { Upper(large) })
	const budget = 4
	if a > budget || b > budget {
		t.Fatalf("Upper allocates %.0f (120 workers) and %.0f (600 workers) times, want ≤ %d", a, b, budget)
	}
	if a != b {
		t.Fatalf("Upper allocations grow with the instance: %.0f → %.0f", a, b)
	}
}

// TestQHatDenseMatchesOf: Dense over a dense copy of the model gives
// every worker Of's bits, for instances of up to 150 workers (bitsets of
// several words) with ties, ±0 and NaN among the qualities, B−1 up to 20,
// and asks the model for nothing.
func TestQHatDenseMatchesOf(t *testing.T) {
	r := rand.New(rand.NewSource(134))
	var q QHat
	var got []float64
	for trial := 0; trial < 300; trial++ {
		b := 2 + r.Intn(7)
		if trial%10 == 0 {
			b = 2 + r.Intn(20)
		}
		nW := 1 + r.Intn(40)
		if trial%4 == 0 {
			nW = 60 + r.Intn(91)
		}
		in := boundsInstance(r, nW, 1+r.Intn(15), b, 0.02+r.Float64()*0.4, trial, trial%2 == 0)
		tq := in.Quality.(*tableQuality)
		tq.calls = map[[2]int]int{}
		got = q.Dense(in, tq.q, got[:0])
		if len(tq.calls) != 0 {
			t.Fatalf("Dense asked the model about %d pairs, want none", len(tq.calls))
		}
		tq.calls = nil
		q.Reset(in)
		for w := range in.Workers {
			if want := q.Of(w); math.Float64bits(got[w]) != math.Float64bits(want) {
				t.Fatalf("B=%d, %d workers: Dense gives worker %d q̂ %v (%#x), Of %v (%#x)",
					b, nW, w, got[w], math.Float64bits(got[w]), want, math.Float64bits(want))
			}
		}
	}
}
