package assign

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"casc/internal/coop"
	"casc/internal/game"
	"casc/internal/model"
)

// This file pins the arena refactor to the allocating implementation it
// replaced: refTPGSolve / refGTSolve below are the pre-arena solver hot
// paths, kept verbatim (per-call makes, sort copies in sameSet, an inChosen
// map, container/heap with its interface boxing, per-Apply affected
// slices). The property and fuzz tests assert that the arena-backed solvers
// — both with a throwaway arena and with one persistent arena reused across
// many solves — reproduce the reference output bitwise: identical pairs,
// identical group member order, identical Float64bits of the score.

func refTPGSolve(ctx context.Context, s *TPG, in *model.Instance) *model.Assignment {
	a := model.NewAssignment(in)
	groups := newGroups(in)
	avail := make([]bool, len(in.Workers))
	for i := range avail {
		avail[i] = true
	}
	served := refStageOne(ctx, s, in, a, groups, avail)
	if ctx.Err() == nil {
		refStageTwo(ctx, in, a, groups, avail, served)
	}
	return a
}

func refStageOne(ctx context.Context, s *TPG, in *model.Instance, a *model.Assignment, groups []*model.GroupScore, avail []bool) []bool {
	n := len(in.Tasks)
	served := make([]bool, n)
	remaining := make([]bool, n)
	for t := range remaining {
		remaining[t] = true
	}
	bestSet := make([][]int, n)
	bestScore := make([]float64, n)
	dirty := make([]bool, n)
	for t := range dirty {
		dirty[t] = true
	}
	for {
		if ctx.Err() != nil {
			return served
		}
		bestTask := -1
		for t := 0; t < n; t++ {
			if !remaining[t] {
				continue
			}
			if dirty[t] {
				if ctx.Err() != nil {
					return served
				}
				bestSet[t], bestScore[t] = refBestBSubset(s, in, t, avail)
				dirty[t] = false
			}
			if bestSet[t] == nil {
				continue
			}
			if bestTask < 0 || bestScore[t] > bestScore[bestTask] {
				bestTask = t
			}
		}
		if bestTask < 0 {
			break
		}
		winner := bestTask
		winnerCands := refAvailableCands(in, bestTask, avail)
		for t := 0; t < n; t++ {
			if t == bestTask || !remaining[t] || bestSet[t] == nil {
				continue
			}
			if bestScore[t] == bestScore[bestTask] && refSameSet(bestSet[t], bestSet[bestTask]) {
				if c := refAvailableCands(in, t, avail); c > winnerCands {
					winner, winnerCands = t, c
				}
			}
		}
		for _, w := range bestSet[winner] {
			a.Assign(w, winner)
			groups[winner].Join(w)
			avail[w] = false
			for _, t := range in.WorkerCand[w] {
				if dirty[t] || !remaining[t] {
					continue
				}
				for _, m := range bestSet[t] {
					if m == w {
						dirty[t] = true
						break
					}
				}
			}
		}
		remaining[winner] = false
		served[winner] = true
	}
	return served
}

func refAvailableCands(in *model.Instance, t int, avail []bool) int {
	c := 0
	for _, w := range in.TaskCand[t] {
		if avail[w] {
			c++
		}
	}
	return c
}

func refSameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func refBestBSubset(s *TPG, in *model.Instance, t int, avail []bool) ([]int, float64) {
	limit := s.SeedLimit
	if limit <= 0 {
		limit = DefaultSeedLimit
	}
	cands := make([]int, 0, len(in.TaskCand[t]))
	for _, w := range in.TaskCand[t] {
		if avail[w] {
			cands = append(cands, w)
		}
	}
	B := in.B
	if len(cands) < B {
		return nil, 0
	}
	if len(cands) > limit {
		cands = refTruncateByAffinity(in, cands, limit)
	}
	q := in.Quality
	bi, bk, bSum := -1, -1, -1.0
	for x := 0; x < len(cands); x++ {
		for y := x + 1; y < len(cands); y++ {
			sum := q.Quality(cands[x], cands[y]) + q.Quality(cands[y], cands[x])
			if sum > bSum {
				bi, bk, bSum = x, y, sum
			}
		}
	}
	chosen := []int{cands[bi], cands[bk]}
	inChosen := map[int]bool{cands[bi]: true, cands[bk]: true}
	pairSum := bSum
	for len(chosen) < B {
		bestW, bestGain := -1, -1.0
		for _, w := range cands {
			if inChosen[w] {
				continue
			}
			gain := 0.0
			for _, m := range chosen {
				gain += q.Quality(w, m) + q.Quality(m, w)
			}
			if gain > bestGain {
				bestW, bestGain = w, gain
			}
		}
		if bestW < 0 {
			return nil, 0
		}
		chosen = append(chosen, bestW)
		inChosen[bestW] = true
		pairSum += bestGain
	}
	denom := B
	if cap := in.Tasks[t].Capacity; cap < denom {
		denom = cap
	}
	if denom < 2 {
		return nil, 0
	}
	return chosen, pairSum / float64(denom-1)
}

func refTruncateByAffinity(in *model.Instance, cands []int, limit int) []int {
	const sample = 32
	step := len(cands) / sample
	if step < 1 {
		step = 1
	}
	type scored struct {
		w int
		s float64
	}
	scoredCands := make([]scored, len(cands))
	for i, w := range cands {
		var sum float64
		for j := 0; j < len(cands); j += step {
			o := cands[j]
			if o != w {
				sum += in.Quality.Quality(w, o)
			}
		}
		scoredCands[i] = scored{w: w, s: sum}
	}
	sort.Slice(scoredCands, func(i, j int) bool { return scoredCands[i].s > scoredCands[j].s })
	out := make([]int, limit)
	for i := range out {
		out[i] = scoredCands[i].w
	}
	return out
}

type refPairHeap []pairEntry

func (h refPairHeap) Len() int { return len(h) }
func (h refPairHeap) Less(i, j int) bool {
	if h[i].delta != h[j].delta {
		return h[i].delta > h[j].delta
	}
	if h[i].task != h[j].task {
		return h[i].task < h[j].task
	}
	return h[i].worker < h[j].worker
}
func (h refPairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refPairHeap) Push(x interface{}) { *h = append(*h, x.(pairEntry)) }
func (h *refPairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refStageTwo(ctx context.Context, in *model.Instance, a *model.Assignment, groups []*model.GroupScore, avail []bool, served []bool) {
	version := make([]int, len(in.Tasks))
	h := &refPairHeap{}
	for t := range in.Tasks {
		if !served[t] || groups[t].Len() >= groups[t].Capacity() {
			continue
		}
		for _, w := range in.TaskCand[t] {
			if avail[w] {
				heap.Push(h, pairEntry{delta: groups[t].JoinDelta(w), worker: w, task: t, version: version[t]})
			}
		}
	}
	for h.Len() > 0 {
		if ctx.Err() != nil {
			return
		}
		e := heap.Pop(h).(pairEntry)
		if !avail[e.worker] {
			continue
		}
		g := groups[e.task]
		if g.Len() >= g.Capacity() {
			continue
		}
		if e.version != version[e.task] {
			e.delta = g.JoinDelta(e.worker)
			e.version = version[e.task]
			heap.Push(h, e)
			continue
		}
		if e.delta <= 0 {
			continue
		}
		a.Assign(e.worker, e.task)
		g.Join(e.worker)
		avail[e.worker] = false
		version[e.task]++
	}
}

// refGroup is the uncached model.GroupScore arithmetic, kept verbatim:
// every LeaveDelta and SwapDelta re-derives the cross-sums it needs. The
// production group caches member cross-sums and scores crowd-outs in one
// pass (BestSwap); refCASCGame runs on refGroup so the GT equivalence
// checks compare that fast path against this one, not against itself.
type refGroup struct {
	in       *model.Instance
	capacity int
	members  []int
	pairSum  float64
}

func (g *refGroup) Len() int { return len(g.members) }

func (g *refGroup) crossSum(w int) float64 {
	var s float64
	for _, m := range g.members {
		if m != w {
			s += g.in.Quality.Quality(w, m) + g.in.Quality.Quality(m, w)
		}
	}
	return s
}

func (g *refGroup) qOf(n int, pairSum float64) float64 {
	if n < g.in.B {
		return 0
	}
	denom := n
	if g.capacity < denom {
		denom = g.capacity
	}
	if denom < 2 {
		return 0
	}
	return pairSum / float64(denom-1)
}

func (g *refGroup) Q() float64 { return g.qOf(len(g.members), g.pairSum) }

func (g *refGroup) JoinDelta(w int) float64 {
	newSum := g.pairSum + g.crossSum(w)
	return g.qOf(len(g.members)+1, newSum) - g.Q()
}

func (g *refGroup) LeaveDelta(w int) float64 {
	newSum := g.pairSum - g.crossSum(w)
	return g.Q() - g.qOf(len(g.members)-1, newSum)
}

func (g *refGroup) SwapDelta(out, in int) float64 {
	sum := g.pairSum - g.crossSum(out)
	var cs float64
	for _, m := range g.members {
		if m != out && m != in {
			cs += g.in.Quality.Quality(in, m) + g.in.Quality.Quality(m, in)
		}
	}
	sum += cs
	return g.qOf(len(g.members), sum) - g.Q()
}

func (g *refGroup) Join(w int) {
	g.pairSum += g.crossSum(w)
	g.members = append(g.members, w)
}

func (g *refGroup) Leave(w int) {
	for i, m := range g.members {
		if m == w {
			g.members[i] = g.members[len(g.members)-1]
			g.members = g.members[:len(g.members)-1]
			g.pairSum -= g.crossSum(w)
			return
		}
	}
	panic("refGroup: worker not in group")
}

// refCASCGame is the pre-arena strategic game with per-Apply affected
// slices, over uncached refGroups.
type refCASCGame struct {
	in     *model.Instance
	groups []*refGroup
	cur    []int
}

func newRefCASCGame(in *model.Instance, init *model.Assignment) *refCASCGame {
	g := &refCASCGame{
		in:     in,
		groups: make([]*refGroup, len(in.Tasks)),
		cur:    make([]int, len(in.Workers)),
	}
	for t := range g.groups {
		g.groups[t] = &refGroup{in: in, capacity: in.Tasks[t].Capacity}
	}
	for w := range g.cur {
		g.cur[w] = model.Unassigned
	}
	for t, ws := range init.TaskWorkers {
		for _, w := range ws {
			g.groups[t].Join(w)
			g.cur[w] = t
		}
	}
	return g
}

func (g *refCASCGame) NumPlayers() int { return len(g.cur) }

func (g *refCASCGame) moveGain(w, t int) (gain float64, evict int) {
	leaveLoss := 0.0
	if ct := g.cur[w]; ct != model.Unassigned {
		leaveLoss = g.groups[ct].LeaveDelta(w)
	}
	grp := g.groups[t]
	if grp.Len() < grp.capacity {
		return grp.JoinDelta(w) - leaveLoss, -1
	}
	bestDelta, bestOut := 0.0, -1
	for _, out := range grp.members {
		if d := grp.SwapDelta(out, w); bestOut < 0 || d > bestDelta {
			bestDelta, bestOut = d, out
		}
	}
	return bestDelta - leaveLoss, bestOut
}

func (g *refCASCGame) BestResponse(w int) (int, float64, bool) {
	cand := g.in.WorkerCand[w]
	bestS, bestGain := stratNone, 0.0
	if ct := g.cur[w]; ct != model.Unassigned {
		if gain := -g.groups[ct].LeaveDelta(w); gain > bestGain {
			bestS, bestGain = len(cand), gain
		}
	}
	for si, t := range cand {
		if t == g.cur[w] {
			continue
		}
		gain, _ := g.moveGain(w, t)
		if gain > bestGain {
			bestS, bestGain = si, gain
		}
	}
	if bestS == stratNone {
		return 0, 0, false
	}
	return bestS, bestGain, true
}

func (g *refCASCGame) Apply(w, strategy int) []int {
	cand := g.in.WorkerCand[w]
	var affected []int
	leave := func() {
		if ct := g.cur[w]; ct != model.Unassigned {
			g.groups[ct].Leave(w)
			g.cur[w] = model.Unassigned
			affected = append(affected, g.in.TaskCand[ct]...)
		}
	}
	if strategy == len(cand) {
		leave()
		return affected
	}
	t := cand[strategy]
	grp := g.groups[t]
	if grp.Len() >= grp.capacity {
		_, out := g.moveGain(w, t)
		if out >= 0 {
			grp.Leave(out)
			g.cur[out] = model.Unassigned
			affected = append(affected, out)
		}
	}
	leave()
	grp.Join(w)
	g.cur[w] = t
	affected = append(affected, g.in.TaskCand[t]...)
	return affected
}

func (g *refCASCGame) Potential() float64 {
	var total float64
	for _, grp := range g.groups {
		total += grp.Q()
	}
	return total
}

func refGTSolve(ctx context.Context, opts GTOptions, in *model.Instance) *model.Assignment {
	var a *model.Assignment
	if opts.RandomInit {
		a = randomInit(in, opts.Seed)
	} else {
		a = refTPGSolve(ctx, NewTPG(), in)
	}
	if ctx.Err() != nil {
		return a
	}
	g := newRefCASCGame(in, a)
	game.Run(g, game.Options{
		Epsilon:      opts.Epsilon,
		Lazy:         opts.LUB,
		MaxRounds:    opts.MaxRounds,
		Context:      ctx,
		GainPriority: opts.GainPriority,
	})
	out := model.NewAssignment(in)
	for w, t := range g.cur {
		if t != model.Unassigned {
			out.Assign(w, t)
		}
	}
	return out
}

// requireBitwiseEqual asserts the two assignments are indistinguishable:
// same worker→task map, same per-task member order (which feeds the float
// summation order), and bit-identical total score.
func requireBitwiseEqual(t *testing.T, in *model.Instance, got, want *model.Assignment, label string) {
	t.Helper()
	for w := range in.Workers {
		if got.WorkerTask[w] != want.WorkerTask[w] {
			t.Fatalf("%s: worker %d: got task %d, reference %d", label, w, got.WorkerTask[w], want.WorkerTask[w])
		}
	}
	for tt := range in.Tasks {
		g, r := got.TaskWorkers[tt], want.TaskWorkers[tt]
		if len(g) != len(r) {
			t.Fatalf("%s: task %d: got %d members, reference %d", label, tt, len(g), len(r))
		}
		for i := range g {
			if g[i] != r[i] {
				t.Fatalf("%s: task %d member %d: got w%d, reference w%d (member order must match bitwise)", label, tt, i, g[i], r[i])
			}
		}
	}
	gs, rs := got.TotalScore(in), want.TotalScore(in)
	if math.Float64bits(gs) != math.Float64bits(rs) {
		t.Fatalf("%s: score %v (bits %x) != reference %v (bits %x)", label, gs, math.Float64bits(gs), rs, math.Float64bits(rs))
	}
}

// TestArenaTPGEquivalence checks TPG against the pre-arena reference on
// random instances, with one persistent arena reused across every trial —
// so cross-solve contamination (stale marks, dirty buffers, slot reuse)
// shows up as a bitwise diff.
func TestArenaTPGEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ctx := context.Background()
	s := NewTPG()
	s.SetArena(NewArena()) // persistent across trials, including shrinking sizes
	for trial := 0; trial < 30; trial++ {
		nW := 10 + r.Intn(120)
		nT := 2 + r.Intn(30)
		b := 2 + r.Intn(2)
		in := randomInstance(r, nW, nT, b)
		got, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, in, got, refTPGSolve(ctx, NewTPG(), in), "TPG")
	}
}

// TestArenaTPGSeedLimitEquivalence forces the truncateByAffinity path.
func TestArenaTPGSeedLimitEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ctx := context.Background()
	s := &TPG{SeedLimit: 8, Arena: NewArena()}
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(r, 80+r.Intn(80), 2+r.Intn(10), 3)
		got, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, in, got, refTPGSolve(ctx, &TPG{SeedLimit: 8}, in), "TPG/SeedLimit=8")
	}
}

// tiedQuality is an asymmetric model with four distinct values, so
// crowd-out candidates often tie and the first-maximiser rule decides. The
// values are inexact in binary, so a different summation order shows up in
// the bits and can flip which candidate wins.
func tiedQuality(n int) coop.Func {
	vals := [4]float64{0.1, 0.2, 0.7, 1.0 / 3}
	return coop.Func{N: n, F: func(i, k int) float64 { return vals[(7*i+3*k)%4] }}
}

// TestArenaGTEquivalence checks every GT variant against the pre-arena
// reference, again with persistent arenas.
func TestArenaGTEquivalence(t *testing.T) {
	ctx := context.Background()
	variants := []GTOptions{
		{},
		{LUB: true},
		{Epsilon: 0.01},
		{LUB: true, Epsilon: 0.01},
		{RandomInit: true, Seed: 5},
		{GainPriority: true},
	}
	for vi, opts := range variants {
		r := rand.New(rand.NewSource(int64(100 + vi)))
		s := NewGT(opts)
		s.SetArena(NewArena())
		for trial := 0; trial < 24; trial++ {
			in := randomInstance(r, 10+r.Intn(90), 2+r.Intn(20), 2+r.Intn(2))
			if trial%2 == 1 {
				in.Quality = tiedQuality(len(in.Workers))
			}
			got, err := s.Solve(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseEqual(t, in, got, refGTSolve(ctx, opts, in), s.Name())
		}
	}
}

// TestArenaTPGLargeBEquivalence checks TPG and GT against the references
// at B = 4..10, where stage one's greedy adds up to eight members past the
// seed pair, so the carried marginal gains are checked over many steps.
// Capacities are at least B. The quality models are Synthetic, tiedQuality
// and an asymmetric table drawn half from paletteQ (ties, ±0, NaN,
// negatives).
func TestArenaTPGLargeBEquivalence(t *testing.T) {
	ctx := context.Background()
	tpg := NewTPG()
	tpg.SetArena(NewArena())
	gt := NewGT(GTOptions{})
	gt.SetArena(NewArena())
	r := rand.New(rand.NewSource(23))
	for b := 4; b <= 10; b++ {
		stepped := false // some task had candidates to spare at this B
		for qm := 0; qm < 3; qm++ {
			for trial := 0; trial < 2; trial++ {
				in := randomInstance(r, 120+r.Intn(120), 2+r.Intn(12), b)
				switch qm {
				case 1:
					in.Quality = tiedQuality(len(in.Workers))
				case 2:
					in.Quality = paletteTable(r, len(in.Workers))
				}
				for _, c := range in.TaskCand {
					stepped = stepped || len(c) > b
				}
				label := fmt.Sprintf("B=%d model=%d trial=%d", b, qm, trial)
				got, err := tpg.Solve(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				requireBitwiseEqual(t, in, got, refTPGSolve(ctx, NewTPG(), in), "TPG "+label)
				gotGT, err := gt.Solve(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				requireBitwiseEqual(t, in, gotGT, refGTSolve(ctx, GTOptions{}, in), "GT "+label)
			}
		}
		if !stepped {
			t.Fatalf("B=%d: no task had more than B candidates", b)
		}
	}
}

// paletteTable is an asymmetric quality table over n workers whose entries
// are drawn half from paletteQ and half uniformly from [0, 1).
func paletteTable(r *rand.Rand, n int) *tableQuality {
	tq := &tableQuality{n: n, q: make([]float64, n*n)}
	for i := range tq.q {
		if r.Intn(2) == 0 {
			tq.q[i] = paletteQ[r.Intn(len(paletteQ))]
		} else {
			tq.q[i] = r.Float64()
		}
	}
	return tq
}

// TestArenaWarmEquivalence reuses one arena AND one warm cache across
// rounds over a slowly-mutating instance sequence, against cold reference
// solves.
func TestArenaWarmEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ctx := context.Background()
	s := NewTPG()
	s.SetArena(NewArena())
	warm := NewWarm()
	in := randomInstance(r, 80, 16, 3)
	for round := 0; round < 8; round++ {
		got, err := s.SolveWarm(ctx, in, warm)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, in, got, refTPGSolve(ctx, NewTPG(), in), "TPG+warm")
		// Mutate a corner of the instance: move one worker, which flips a
		// few fingerprints and leaves the rest warm.
		w := r.Intn(len(in.Workers))
		in.Workers[w].Loc = in.Workers[w].Loc.Add(0.01*(r.Float64()-0.5), 0.01*(r.Float64()-0.5))
		in.BuildCandidates(model.IndexRTree)
	}
}

// fuzzGTVariants are the GT variants FuzzArenaEquivalence selects from.
var fuzzGTVariants = []GTOptions{
	{},
	{LUB: true},
	{Epsilon: 0.01},
	{GainPriority: true},
	{RandomInit: true, Seed: 7},
}

// FuzzArenaEquivalence drives random instance shapes through arena-backed
// TPG and GT (persistent arena per fuzz process) and requires bitwise
// equality with the pre-arena reference implementations. tied swaps in
// tiedQuality, whose frequent ties make the first-maximiser order decide
// both the seed pair of TPG stage one and GT's best responses; b picks
// B in 2..10, so stage one's greedy takes up to eight steps; variant picks
// the GT variant from fuzzGTVariants.
func FuzzArenaEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(0), false, uint8(0))
	f.Add(int64(2), uint8(90), uint8(25), uint8(1), true, uint8(1))
	f.Add(int64(3), uint8(5), uint8(2), uint8(0), false, uint8(2))
	f.Add(int64(4), uint8(120), uint8(3), uint8(1), true, uint8(3))
	f.Add(int64(5), uint8(70), uint8(12), uint8(1), true, uint8(4))
	f.Add(int64(6), uint8(60), uint8(8), uint8(0), false, uint8(1))
	f.Add(int64(7), uint8(200), uint8(10), uint8(4), true, uint8(0))
	f.Add(int64(8), uint8(250), uint8(6), uint8(8), false, uint8(2))
	tpg := NewTPG()
	tpg.SetArena(NewArena())
	gt := NewGT(GTOptions{})
	gt.SetArena(NewArena())
	f.Fuzz(func(t *testing.T, seed int64, nw, nt, b uint8, tied bool, variant uint8) {
		nW := 4 + int(nw)
		nT := 1 + int(nt)%40
		B := 2 + int(b)%9
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, nW, nT, B)
		if tied {
			in.Quality = tiedQuality(len(in.Workers))
		}
		ctx := context.Background()

		got, err := tpg.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		ref := refTPGSolve(ctx, NewTPG(), in)
		requireBitwiseEqualFuzz(t, in, got, ref, "TPG")

		opts := fuzzGTVariants[int(variant)%len(fuzzGTVariants)]
		gt.opts = opts
		gotGT, err := gt.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqualFuzz(t, in, gotGT, refGTSolve(ctx, opts, in), gt.Name())
	})
}

func requireBitwiseEqualFuzz(t *testing.T, in *model.Instance, got, want *model.Assignment, label string) {
	t.Helper()
	for w := range in.Workers {
		if got.WorkerTask[w] != want.WorkerTask[w] {
			t.Fatalf("%s: worker %d: got task %d, reference %d", label, w, got.WorkerTask[w], want.WorkerTask[w])
		}
	}
	for tt := range in.Tasks {
		g, r := got.TaskWorkers[tt], want.TaskWorkers[tt]
		if len(g) != len(r) {
			t.Fatalf("%s: task %d: got %d members, reference %d", label, tt, len(g), len(r))
		}
		for i := range g {
			if g[i] != r[i] {
				t.Fatalf("%s: task %d member %d: got w%d, reference w%d", label, tt, i, g[i], r[i])
			}
		}
	}
	if g, r := got.TotalScore(in), want.TotalScore(in); math.Float64bits(g) != math.Float64bits(r) {
		t.Fatalf("%s: score %v != reference %v", label, g, r)
	}
}
