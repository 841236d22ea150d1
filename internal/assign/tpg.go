package assign

import (
	"context"
	"sort"

	"casc/internal/metrics"
	"casc/internal/model"
)

// TPG is the task-priority greedy approach of §IV (Algorithm 2). Stage one
// iteratively gives each not-yet-served task the best set of B workers and
// commits the globally best such set, breaking ties toward the task with
// the most remaining candidate workers; stage two keeps committing the
// single worker-and-task pair with the largest cooperation quality increase
// ΔQ (Equation 4) until no pair improves the objective.
type TPG struct {
	// SeedLimit bounds the exhaustive best-pair seeding of the B-subset
	// search; candidate pools larger than this are truncated to the workers
	// with the highest sampled affinity first (see DESIGN.md §4.2). Zero
	// selects DefaultSeedLimit.
	SeedLimit int
	// Metrics, when non-nil, receives per-Solve counters: stage-one subset
	// refreshes and prune hits, stage-two heap operations and stale
	// re-evaluations. Set it directly or via Instrument.
	Metrics *metrics.Registry
	// Arena, when non-nil, is the scratch memory every Solve draws from,
	// making steady-state solves allocation-free at the price of
	// arena-owned results and no concurrent Solve calls (see Arena). Nil
	// uses a throwaway arena per Solve — the exact same code path, so the
	// output is identical either way.
	Arena *Arena
}

// DefaultSeedLimit is the largest candidate pool searched exhaustively for
// the best seeding pair.
const DefaultSeedLimit = 512

// NewTPG returns a TPG solver with default options.
func NewTPG() *TPG { return &TPG{} }

// Name implements Solver.
func (s *TPG) Name() string { return "TPG" }

// SetArena implements ArenaHolder.
func (s *TPG) SetArena(ar *Arena) { s.Arena = ar }

// Fork implements Forker: TPG is deterministic, so the fork just carries
// the configuration (and the shared, concurrency-safe metrics registry)
// while leaving no mutable state in common — the arena in particular is
// deliberately NOT inherited; the caller that forked us attaches one via
// SetArena if it wants one.
func (s *TPG) Fork(int64) Solver { return &TPG{SeedLimit: s.SeedLimit, Metrics: s.Metrics} }

// tpgCounters accumulates per-Solve instrumentation locally so the hot
// loops pay plain integer increments, flushed to the registry once.
type tpgCounters struct {
	subsetRefreshes uint64
	subsetSkips     uint64
	heapPushes      uint64
	heapPops        uint64
	staleReevals    uint64
	warmHits        uint64
	warmMisses      uint64
	seedReuses      uint64
}

// Solve implements Solver.
func (s *TPG) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	return s.solve(ctx, in, nil)
}

// SolveWarm implements WarmStarter: identical output to Solve, with stage
// one's iteration-0 best-B-subsets served from the cache on exact
// fingerprint hits (see Warm) and refreshed into it on misses.
func (s *TPG) SolveWarm(ctx context.Context, in *model.Instance, warm *Warm) (*model.Assignment, error) {
	return s.solve(ctx, in, warm)
}

func (s *TPG) solve(ctx context.Context, in *model.Instance, warm *Warm) (*model.Assignment, error) {
	ar := s.Arena
	if ar == nil {
		ar = NewArena()
	}
	reuses0, grows0 := ar.reuses, ar.grows
	var c tpgCounters
	a := s.run(ctx, in, warm, ar, &c)
	if s.Metrics != nil {
		c.record(s.Metrics, s.Name())
		recordArenaMetrics(s.Metrics, s.Name(), ar.reuses-reuses0, ar.grows-grows0)
	}
	return a, nil
}

// run is one TPG solve on ar, counting into c. It opens the arena's solve
// (ar.begin), so a GT run that starts with it counts as one solve.
func (s *TPG) run(ctx context.Context, in *model.Instance, warm *Warm, ar *Arena, c *tpgCounters) *model.Assignment {
	ar.begin()
	a := ar.assignmentFor(in)
	groups := ar.groupsFor(in)
	avail := ar.boolsFor(&ar.avail, len(in.Workers), true)
	served := s.stageOne(ctx, in, a, groups, avail, ar, c, warm)
	if ctx.Err() == nil {
		s.stageTwo(ctx, in, a, groups, avail, served, ar, c)
	}
	return a
}

// record flushes the counters into reg under the given solver label.
func (c *tpgCounters) record(reg *metrics.Registry, solver string) {
	lbl := metrics.L("solver", solver)
	reg.Counter(MetricTPGSubsetRefreshes, "Stage-one best-B-subset recomputations.", lbl).Add(c.subsetRefreshes)
	reg.Counter(MetricTPGSubsetSkips, "Stage-one iterations that reused a cached subset.", lbl).Add(c.subsetSkips)
	reg.Counter(MetricTPGHeapPushes, "Stage-two heap pushes.", lbl).Add(c.heapPushes)
	reg.Counter(MetricTPGHeapPops, "Stage-two heap pops.", lbl).Add(c.heapPops)
	reg.Counter(MetricTPGStaleReevals, "Stage-two stale deltas re-evaluated.", lbl).Add(c.staleReevals)
	reg.Counter(MetricTPGWarmHits, "Stage-one iteration-0 subsets served from the warm cache.", lbl).Add(c.warmHits)
	reg.Counter(MetricTPGWarmMisses, "Stage-one iteration-0 subsets recomputed into the warm cache.", lbl).Add(c.warmMisses)
	reg.Counter(MetricTPGSeedReuses, "Stage-one subset refreshes seeded from the ranked runners-up.", lbl).Add(c.seedReuses)
}

// recordArenaMetrics flushes one solve's arena reuse/grow deltas.
func recordArenaMetrics(reg *metrics.Registry, solver string, reuses, grows uint64) {
	lbl := metrics.L("solver", solver)
	if reuses > 0 {
		reg.Counter(MetricArenaReuses, "Solves served by an already-used scratch arena.", lbl).Add(reuses)
	}
	if grows > 0 {
		reg.Counter(MetricArenaGrows, "Scratch-arena buffer growths during solves.", lbl).Add(grows)
	}
}

// newGroups allocates one GroupScore per task. The TPG/GT hot paths draw
// groups from the arena instead (Arena.groupsFor); this stays for the
// simpler solvers (WST, EXACT, local search) where allocation is not the
// bottleneck.
func newGroups(in *model.Instance) []*model.GroupScore {
	gs := make([]*model.GroupScore, len(in.Tasks))
	for t := range in.Tasks {
		gs[t] = in.NewGroupScore(in.Tasks[t].Capacity)
	}
	return gs
}

// stageOne runs Algorithm 2 lines 1-14 and returns the set of tasks that
// received a B-worker set.
func (s *TPG) stageOne(ctx context.Context, in *model.Instance, a *model.Assignment, groups []*model.GroupScore, avail []bool, ar *Arena, c *tpgCounters, warm *Warm) []bool {
	n := len(in.Tasks)
	served := ar.boolsFor(&ar.served, n, false)
	remaining := ar.boolsFor(&ar.remaining, n, true)
	dirty := ar.boolsFor(&ar.dirty, n, true)
	bestScore := ar.floatsFor(&ar.bestScore, n)
	bestSet := ar.setsFor(n, in.B)
	// candCount[t] tracks |TaskCand[t] ∩ avail| exactly: every worker starts
	// available and is committed (made unavailable) at most once, so
	// decrementing the counts of its candidate tasks at commit time keeps
	// the cache equal to a fresh recount. This hoists the per-candidate
	// availableCands sweep out of the tie-break loop.
	candCount := ar.intsFor(&ar.candCount, n)
	for t := 0; t < n; t++ {
		candCount[t] = len(in.TaskCand[t])
	}
	ar.seedsFor(n)

	if warm != nil {
		// Iteration-0 sweep: with every worker still available, each task's
		// best B-subset is a pure function of its candidate sequence,
		// capacity, B and the quality rows — exactly the fingerprint a Warm
		// entry pins. Hits replay the cached subset (in its original greedy
		// commit order) bit for bit; misses compute as usual and refresh the
		// cache. The main loop below then starts with nothing dirty, just as
		// a cold solve does after its own first pass.
		for t := 0; t < n; t++ {
			if ctx.Err() != nil {
				return served
			}
			if wt := warm.lookup(in, t); wt != nil {
				bestSet[t], bestScore[t] = wt.apply(in, t, ar.setSlot(t))
				c.warmHits++
			} else {
				bestSet[t], bestScore[t] = s.bestBSubset(in, t, avail, ar, c)
				warm.store(in, t, bestSet[t], bestScore[t])
				c.subsetRefreshes++
				c.warmMisses++
			}
			dirty[t] = false
		}
	}

	for {
		if ctx.Err() != nil {
			return served
		}
		// Refresh dirty tasks and find the global best B-set (lines 3-5).
		bestTask := -1
		for t := 0; t < n; t++ {
			if !remaining[t] {
				continue
			}
			if dirty[t] {
				// The subset search dominates stage-one cost; honouring
				// cancellation here bounds the reaction to one refresh.
				if ctx.Err() != nil {
					return served
				}
				bestSet[t], bestScore[t] = s.bestBSubset(in, t, avail, ar, c)
				dirty[t] = false
				c.subsetRefreshes++
			} else {
				c.subsetSkips++
			}
			if bestSet[t] == nil {
				continue
			}
			if bestTask < 0 || bestScore[t] > bestScore[bestTask] {
				bestTask = t
			}
		}
		if bestTask < 0 {
			break // no remaining task can be served with B workers
		}
		// Tie-break (lines 6-9): among tasks whose best set is the same
		// worker set with the same score, prefer the task with the most
		// remaining candidate workers.
		winner := bestTask
		winnerCands := candCount[bestTask]
		for t := 0; t < n; t++ {
			if t == bestTask || !remaining[t] || bestSet[t] == nil {
				continue
			}
			if bestScore[t] == bestScore[bestTask] && sameSet(bestSet[t], bestSet[bestTask]) {
				if cc := candCount[t]; cc > winnerCands {
					winner, winnerCands = t, cc
				}
			}
		}
		// Commit (lines 10-13). Removing a worker from the pool only changes
		// another task's cached best B-set when that worker is IN the cached
		// set: the greedy construction's comparisons never involve
		// non-selected candidates, so shrinking the pool by one of them
		// leaves the greedy trace intact. Marking only those tasks dirty
		// cuts stage-one recomputation by roughly cands/B.
		for _, w := range bestSet[winner] {
			a.Assign(w, winner)
			groups[winner].Join(w)
			avail[w] = false
			for _, t := range in.WorkerCand[w] {
				candCount[t]--
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

// sameSet reports whether two B-sets contain the same workers. Each set
// holds distinct workers, so mutual size equality plus one-sided membership
// is set equality; B is 3 in all experiments, making the O(B²) scan cheaper
// than the sort copies it replaced.
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if y == x {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// bestBSubset greedily builds the B-worker set with the highest cooperation
// quality for task t from the available candidates, into task t's arena
// B-set slot. It returns (nil, 0) when fewer than B candidates are
// available. The greedy: seed with the best available pair (exhaustive up
// to SeedLimit candidates), then add the worker with the maximum marginal
// pair-sum gain until B workers are chosen, carrying each candidate's gain
// from step to step. Finding the true optimum is NP-hard (max-weight
// k-induced subgraph, §V-C), so a heuristic here matches both the paper's
// complexity budget (O(m̄) per task and iteration) and its spirit.
//
// Within one stage one a task's candidates only ever lose availability, so
// a refresh takes its seed from the runners-up its last full scan ranked
// (survivingSeed) and scans all pairs only when none of them survives.
func (s *TPG) bestBSubset(in *model.Instance, t int, avail []bool, ar *Arena, c *tpgCounters) ([]int, float64) {
	limit := s.SeedLimit
	if limit <= 0 {
		limit = DefaultSeedLimit
	}
	// cands holds the available candidates by the keys q reads pairs by.
	tc := in.TaskCand[t]
	q := taskPairs{m: in.Quality, blk: in.TaskBlock(t), tc: tc}
	cands := ar.cands[:0]
	for p, w := range tc {
		if avail[w] {
			cands = append(cands, q.key(p, w))
		}
	}
	ar.cands = cands // keep grown capacity for the next call
	B := in.B
	if len(cands) < B {
		return nil, 0
	}
	// A truncated pool's ranking is not kept: the truncation depends on the
	// whole pool, so it does not survive availability changes.
	keep := len(cands) <= limit
	if !keep {
		cands = truncateByAffinity(&q, cands, limit, ar)
	}
	seed, ok := seedPair{}, false
	if keep {
		seed, ok = ar.survivingSeed(t, &q, avail)
	}
	if ok {
		c.seedReuses++
	} else if seed, ok = ar.scanSeeds(&q, t, cands, keep); !ok {
		return nil, 0
	}
	// chosen holds keys until the set is complete.
	chosen := ar.setSlot(t)
	chosen = append(chosen, seed.x, seed.y)
	pairSum := seed.sum
	// A chosen worker's cands entry is overwritten with -1, so the scans
	// below skip it; cands is this call's scratch copy.
	for i, p := range cands {
		if p == seed.x || p == seed.y {
			cands[i] = -1
		}
	}
	// gains[i] carries cands[i]'s marginal gain over the chosen set: each
	// step adds only the members chosen since the last step (both seeds,
	// then the newest), so a candidate's sum takes the same additions in
	// the same order from 0 as a fresh sum over chosen would, at O(c) per
	// step instead of O(c·|chosen|).
	gains := ar.floatsFor(&ar.gains, len(cands))
	clear(gains)
	added := chosen
	blk, qm, n := q.blk, q.m, len(tc)
	for len(chosen) < B {
		bestI, bestGain := -1, -1.0
		for i, p := range cands {
			if p < 0 {
				continue
			}
			gain := gains[i]
			if blk != nil {
				for _, m := range added {
					gain += blk[p*n+m] + blk[m*n+p]
				}
			} else {
				for _, m := range added {
					gain += qm.Quality(p, m) + qm.Quality(m, p)
				}
			}
			gains[i] = gain
			if gain > bestGain {
				bestI, bestGain = i, gain
			}
		}
		if bestI < 0 {
			return nil, 0 // every gain left is NaN or at most -1
		}
		chosen = append(chosen, cands[bestI])
		cands[bestI] = -1
		pairSum += bestGain
		added = chosen[len(chosen)-1:]
	}
	denom := B
	if c := in.Tasks[t].Capacity; c < denom {
		denom = c
	}
	if denom < 2 {
		return nil, 0
	}
	for i, k := range chosen {
		chosen[i] = q.worker(k)
	}
	return chosen, pairSum / float64(denom-1)
}

// taskPairs reads the qualities of one task's candidate pairs by key:
// when the task has a block blk, a candidate's key is its position in the
// task's TaskCand list tc and blk holds the pair; otherwise the key is the
// worker itself and the model m gives the pair, with no lookup in tc. The
// loops branch on blk themselves; a method holding the model call would
// not inline.
type taskPairs struct {
	m   model.QualityModel
	blk []float64
	tc  []int
}

// key returns the key of w, the candidate at position p of tc.
func (q *taskPairs) key(p, w int) int {
	if q.blk != nil {
		return p
	}
	return w
}

// worker returns the candidate that key k names.
func (q *taskPairs) worker(k int) int {
	if q.blk != nil {
		return q.tc[k]
	}
	return k
}

// seedTop is how many best seed pairs a full scan ranks per task. A dirty
// refresh whose seed is among them skips the O(c²) scan; with 8, 97 % of
// the dirty refreshes on random 2000-worker, 150-task instances do.
const seedTop = 8

// seedPair is a candidate seed: the workers with taskPairs keys x and y,
// x first in TaskCand order, with sum = q(x,y) + q(y,x).
type seedPair struct {
	x, y int
	sum  float64
}

// scanSeeds is the exhaustive seed scan over cands. It returns the pair
// with the largest sum, the first in loop order among equal sums (false
// when no sum exceeds -1, the scan's floor). Along the way it ranks the
// best seedTop pairs into task t's slot in the same order — sum
// descending, then loop order — and keeps that ranking for survivingSeed
// when keep is set.
func (ar *Arena) scanSeeds(q *taskPairs, t int, cands []int, keep bool) (seedPair, bool) {
	top := ar.seedSlot(t)
	n := 0
	floor := -1.0 // sums at or below floor cannot enter the ranking
	blk, m, nc := q.blk, q.m, len(q.tc)
	for x := 0; x < len(cands); x++ {
		a := cands[x]
		for y := x + 1; y < len(cands); y++ {
			b := cands[y]
			var sum float64
			if blk != nil {
				sum = blk[a*nc+b] + blk[b*nc+a]
			} else {
				sum = m.Quality(a, b) + m.Quality(b, a)
			}
			if !(sum > floor) {
				continue
			}
			// Insert after every entry with an equal or larger sum; when
			// the ranking is full the last entry drops off.
			if n < len(top) {
				n++
			}
			i := n - 1
			for i > 0 && top[i-1].sum < sum {
				top[i] = top[i-1]
				i--
			}
			top[i] = seedPair{x: cands[x], y: cands[y], sum: sum}
			if n == len(top) {
				floor = top[n-1].sum
			}
		}
	}
	ar.seedLen[t] = 0
	if keep {
		ar.seedLen[t] = n
	}
	return top[0], n > 0
}

// survivingSeed returns the first pair of task t's ranking whose workers
// are both still available. Availability only shrinks within stage one, so
// every pair ranked above it is dead and every unranked pair ranks below
// it: it is the pair a full scan of the available candidates would pick.
// It reports false, and drops the ranking, when no ranked pair survives.
func (ar *Arena) survivingSeed(t int, q *taskPairs, avail []bool) (seedPair, bool) {
	for _, p := range ar.seedSlot(t)[:ar.seedLen[t]] {
		if avail[q.worker(p.x)] && avail[q.worker(p.y)] {
			return p, true
		}
	}
	ar.seedLen[t] = 0
	return seedPair{}, false
}

// truncateByAffinity keeps the limit candidates with the highest total
// affinity to a fixed sample of the pool, a cheap proxy for q̂ when the
// pool is too large for exhaustive pair seeding. cands holds keys for q;
// the surviving ones are written back into cands[:limit].
func truncateByAffinity(q *taskPairs, cands []int, limit int, ar *Arena) []int {
	const sample = 32
	step := len(cands) / sample
	if step < 1 {
		step = 1
	}
	sc := ar.scoredFor(len(cands))
	for i, w := range cands {
		var sum float64
		for j := 0; j < len(cands); j += step {
			o := cands[j]
			if o == w {
				continue
			}
			if q.blk != nil {
				sum += q.blk[w*len(q.tc)+o]
			} else {
				sum += q.m.Quality(w, o)
			}
		}
		sc.w[i] = w
		sc.s[i] = sum
	}
	sort.Sort(sc)
	out := cands[:limit]
	for i := range out {
		out[i] = sc.w[i]
	}
	return out
}

// pairEntry is a lazily evaluated stage-two heap element: worker at
// position pos of the task's TaskCand list.
type pairEntry struct {
	delta   float64
	worker  int
	task    int
	pos     int
	version int // task membership version the delta was computed at
}

// pairHeap is a binary max-heap of pairEntry with container/heap's exact
// sift semantics, implemented as concrete push/pop methods because the
// stdlib driver boxes every element through interface{} — an allocation per
// operation on the hottest stage-two loop.
type pairHeap []pairEntry

func (h pairHeap) Len() int { return len(h) }

// Less orders by descending gain with a (task, worker) lexicographic
// tie-break. Exact ΔQ ties are common — a cold history model gives every
// pair the identical prior — and without the tie-break the pop order among
// equal gains would depend on incidental heap layout, i.e. on which other
// pairs happen to share the heap. The tie-break makes stage two a function
// of the component alone, so solving components separately (incremental
// or sharded decomposition) commits the same pairs as one monolithic solve.
func (h pairHeap) Less(i, j int) bool {
	if h[i].delta != h[j].delta {
		return h[i].delta > h[j].delta
	}
	if h[i].task != h[j].task {
		return h[i].task < h[j].task
	}
	return h[i].worker < h[j].worker
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// push appends e and sifts it up — heap.Push without the interface boxing.
func (h *pairHeap) push(e pairEntry) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !s.Less(j, i) {
			break
		}
		s.Swap(i, j)
		j = i
	}
}

// pop removes and returns the top entry — heap.Pop's swap-to-end then
// sift-down, without the interface boxing.
func (h *pairHeap) pop() pairEntry {
	s := *h
	n := len(s) - 1
	s.Swap(0, n)
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.Less(j2, j) {
			j = j2
		}
		if !s.Less(j, i) {
			break
		}
		s.Swap(i, j)
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}

// stageTwo runs Algorithm 2 lines 15-20: it repeatedly commits the
// available worker-and-task pair with the highest ΔQ (Equation 4) over the
// tasks served in stage one, until tasks are full, workers are exhausted,
// or no pair increases the objective. A lazy max-heap with per-task version
// stamps keeps each selection near O(log |pairs|).
func (s *TPG) stageTwo(ctx context.Context, in *model.Instance, a *model.Assignment, groups []*model.GroupScore, avail []bool, served []bool, ar *Arena, c *tpgCounters) {
	version := ar.intsFor(&ar.version, len(in.Tasks))
	for t := range version {
		version[t] = 0
	}
	h := &ar.pairs
	*h = (*h)[:0]
	for t := range in.Tasks {
		if !served[t] || groups[t].Len() >= groups[t].Capacity() {
			continue
		}
		for p, w := range in.TaskCand[t] {
			if avail[w] {
				h.push(pairEntry{delta: groups[t].JoinDeltaAt(w, p), worker: w, task: t, pos: p, version: version[t]})
				c.heapPushes++
			}
		}
	}
	for h.Len() > 0 {
		if ctx.Err() != nil {
			return
		}
		e := h.pop()
		c.heapPops++
		if !avail[e.worker] {
			continue
		}
		g := groups[e.task]
		if g.Len() >= g.Capacity() {
			continue
		}
		if e.version != version[e.task] {
			// Stale delta: re-evaluate and reinsert.
			e.delta = g.JoinDeltaAt(e.worker, e.pos)
			e.version = version[e.task]
			h.push(e)
			c.heapPushes++
			c.staleReevals++
			continue
		}
		if e.delta <= 0 {
			// This pair no longer increases Q(T), but the rest of the heap
			// is not done: entries below it ordered by a stale delta may
			// re-evaluate higher once their task's group has grown. Drop
			// just this pair and keep draining — terminating here instead
			// would also couple components through the shared heap (one
			// component's non-positive pop abandoning another's pending
			// re-evaluations), breaking the Less contract that stage two is
			// a function of the component alone.
			continue
		}
		a.Assign(e.worker, e.task)
		g.JoinAt(e.worker, e.pos)
		avail[e.worker] = false
		version[e.task]++
	}
}
