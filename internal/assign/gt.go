package assign

import (
	"context"

	"casc/internal/game"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/stats"
)

// GTOptions configure the game theoretic approach.
type GTOptions struct {
	// LUB enables lazy updating of best responses (§V-D, Theorems V.3/V.4).
	LUB bool
	// Epsilon enables threshold stop of the iteration (§V-D): stop once a
	// round improves the total cooperation score by less than Epsilon times
	// its current value. Zero runs to a pure Nash equilibrium.
	Epsilon float64
	// RandomInit initializes each worker on a uniformly random valid task
	// (the generic best-response framework's "randomly selects a strategy
	// for each player", §V-A) instead of the TPG assignment of Algorithm 3
	// line 1. Exposed for the ablation bench. Note that the *empty*
	// assignment would be useless here: it is itself a (worthless) Nash
	// equilibrium, since no single worker joining a below-B group gains
	// anything — a nice illustration of why equilibrium selection matters.
	RandomInit bool
	// Seed drives RandomInit's randomness.
	Seed int64
	// MaxRounds caps best-response rounds (0: engine default).
	MaxRounds int
	// RecordAnytime captures the per-round potential profile into
	// GT.Anytime after Solve — the anytime behaviour §V-D describes (score
	// climbs round by round; interrupt anywhere and keep a valid result).
	RecordAnytime bool
	// GainPriority processes workers in descending order of their last
	// observed improvement within a round (scheduling ablation; see
	// game.Options.GainPriority).
	GainPriority bool
}

// AnytimePoint is one round of GT's anytime profile.
type AnytimePoint struct {
	Round     int
	Potential float64
	Gain      float64
}

// GT is the game theoretic approach of §V (Algorithm 3): model each worker
// as a player whose strategies are their valid tasks and whose utility is
// the cooperation quality increase ΔQ (Equation 5), initialize with TPG,
// then run best-response dynamics until a pure Nash equilibrium. The CA-SC
// strategic game is an exact potential game with potential Q(T)
// (Theorem V.1), so the dynamics converge.
type GT struct {
	opts GTOptions
	// Stats of the last Solve call.
	Stats game.Result
	// Anytime holds the per-round potential profile of the last Solve when
	// GTOptions.RecordAnytime is set.
	Anytime []AnytimePoint
	// Metrics, when non-nil, receives the dynamics counters of every Solve
	// (rounds, swaps, best-response calls, LUB prune savings, stop
	// reasons). Set it directly or via Instrument.
	Metrics *metrics.Registry
	// Arena, when non-nil, is the scratch memory every Solve draws from —
	// shared by the TPG initialization, the strategic game state, and the
	// best-response engine's queues — making steady-state solves
	// allocation-free at the price of arena-owned results and no
	// concurrent Solve calls (see Arena). Nil uses a throwaway arena per
	// Solve; the output is identical either way.
	Arena *Arena
	// inner runs the Algorithm 3 line 1 TPG initialization on the shared
	// arena. Held by value so the solver allocates it exactly once; its
	// counters are flushed under this solver's label by recordMetrics.
	inner TPG
}

// NewGT returns a GT solver with the given options.
func NewGT(opts GTOptions) *GT { return &GT{opts: opts} }

// SetArena implements ArenaHolder.
func (s *GT) SetArena(ar *Arena) { s.Arena = ar }

// Fork implements Forker: the fork shares nothing mutable with the
// receiver (Stats/Anytime are per-fork, and the arena is deliberately not
// inherited; the caller attaches one via SetArena) and adopts the derived
// component seed, which only matters under RandomInit.
func (s *GT) Fork(seed int64) Solver {
	opts := s.opts
	opts.Seed = seed
	return &GT{opts: opts, Metrics: s.Metrics}
}

// Name implements Solver.
func (s *GT) Name() string {
	switch {
	case s.opts.LUB && s.opts.Epsilon > 0:
		return "GT+ALL"
	case s.opts.LUB:
		return "GT+LUB"
	case s.opts.Epsilon > 0:
		return "GT+TSI"
	default:
		return "GT"
	}
}

// Solve implements Solver.
func (s *GT) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	return s.solve(ctx, in, nil)
}

// SolveWarm implements WarmStarter: the warm cache accelerates the TPG
// initialization of Algorithm 3 line 1 only. Best-response dynamics from an
// identical initial assignment replay identically, so the output matches a
// cold Solve exactly; warm-starting from the previous round's *equilibrium*
// would change the dynamics and is deliberately not done.
func (s *GT) SolveWarm(ctx context.Context, in *model.Instance, warm *Warm) (*model.Assignment, error) {
	return s.solve(ctx, in, warm)
}

func (s *GT) solve(ctx context.Context, in *model.Instance, warm *Warm) (*model.Assignment, error) {
	ar := s.Arena
	if ar == nil {
		ar = NewArena()
	}
	reuses0, grows0 := ar.reuses, ar.grows
	var a *model.Assignment
	var init *tpgCounters
	if s.opts.RandomInit {
		ar.begin()
		a = randomInit(in, s.opts.Seed)
	} else {
		// The initialization shares the arena; run calls ar.begin(), so the
		// reuse statistics count one solve for the whole GT run.
		var c tpgCounters
		a = s.inner.run(ctx, in, warm, ar, &c)
		init = &c
	}
	if ctx.Err() != nil {
		return a, nil
	}
	// gameFor replays a into the arena's game state, after which a (the
	// arena's result assignment on the TPG path) is no longer read — the
	// final assignment is materialized back into that same slot below.
	g := ar.gameFor(in, a)
	gopts := game.Options{
		Epsilon:      s.opts.Epsilon,
		Lazy:         s.opts.LUB,
		MaxRounds:    s.opts.MaxRounds,
		Context:      ctx,
		GainPriority: s.opts.GainPriority,
		Scratch:      &ar.game,
	}
	if s.opts.RecordAnytime {
		s.Anytime = s.Anytime[:0]
		gopts.OnRound = func(round int, potential, gain float64) {
			s.Anytime = append(s.Anytime, AnytimePoint{Round: round, Potential: potential, Gain: gain})
		}
	}
	s.Stats = game.Run(g, gopts)
	s.recordMetrics(init, len(in.Workers), g.memoHits, ar.reuses-reuses0, ar.grows-grows0)
	return g.assignmentInto(ar), nil
}

// recordMetrics flushes the last run's TPG initialization counters (nil
// under RandomInit) and dynamics counters into Metrics.
func (s *GT) recordMetrics(init *tpgCounters, players int, memoHits, arenaReuses, arenaGrows uint64) {
	if s.Metrics == nil {
		return
	}
	if init != nil {
		init.record(s.Metrics, s.Name())
	}
	lbl := metrics.L("solver", s.Name())
	s.Metrics.Counter(MetricGTRounds, "Best-response rounds run.", lbl).Add(uint64(s.Stats.Rounds))
	s.Metrics.Counter(MetricGTSwaps, "Strategy switches applied.", lbl).Add(uint64(s.Stats.Moves))
	s.Metrics.Counter(MetricGTBestResponses, "Best-response calls, memo hits included.", lbl).
		Add(uint64(s.Stats.BestResponseCalls))
	s.Metrics.Counter(MetricGTMemoHits, "Best-response calls answered from the per-worker memo.", lbl).Add(memoHits)
	if s.opts.LUB {
		if full := s.Stats.Rounds * players; full > s.Stats.BestResponseCalls {
			s.Metrics.Counter(MetricGTPrunedBestResponses,
				"Best-response evaluations skipped by LUB dirty tracking.", lbl).
				Add(uint64(full - s.Stats.BestResponseCalls))
		}
	}
	s.Metrics.Counter(MetricGTStops, "Dynamics terminations by reason.",
		lbl, metrics.L("reason", string(s.Stats.Reason))).Inc()
	recordArenaMetrics(s.Metrics, s.Name(), arenaReuses, arenaGrows)
}

// randomInit assigns each worker a uniformly random candidate task with
// spare capacity (workers with no open candidate stay unassigned).
func randomInit(in *model.Instance, seed int64) *model.Assignment {
	r := stats.NewRNG(seed)
	a := model.NewAssignment(in)
	load := make([]int, len(in.Tasks))
	var open []int
	for w := range in.Workers {
		open = open[:0]
		for _, t := range in.WorkerCand[w] {
			if load[t] < in.Tasks[t].Capacity {
				open = append(open, t)
			}
		}
		if len(open) == 0 {
			continue
		}
		t := open[r.Intn(len(open))]
		a.Assign(w, t)
		load[t]++
	}
	return a
}

// cascGame is the CA-SC strategic game (§V-B). Strategies of worker w are
// encoded as indices into model.Instance.WorkerCand[w], with the sentinel
// stratNone meaning "no task".
type cascGame struct {
	in     *model.Instance
	groups []*model.GroupScore
	cur    []int // worker -> task index or model.Unassigned
	// affected is Apply's reusable output buffer; the engine consumes it
	// before the next Apply, so one buffer per game suffices.
	affected []int

	// Best-response memo (see BestResponse). clock counts the group
	// mutations Apply makes; taskStamp[t] is the clock value of task t's
	// last Join or Leave, and memo[w] the result of w's last evaluation
	// with the clock value it was computed at.
	clock     int
	taskStamp []int
	memo      []brMemo
	memoHits  uint64
}

// brMemo is one worker's memoised BestResponse result: stamp < 0 marks it
// empty, and strategy stratNone a result with no improving strategy.
type brMemo struct {
	stamp    int
	gain     float64
	strategy int
}

const stratNone = -1

// newCASCGame builds a freshly allocated game over init. The GT hot path
// uses Arena.gameFor instead; this stays for one-shot analyses (regret
// evaluation, tests) where the game outlives any solver arena.
func newCASCGame(in *model.Instance, init *model.Assignment) *cascGame {
	g := &cascGame{
		in:        in,
		groups:    newGroups(in),
		cur:       make([]int, len(in.Workers)),
		taskStamp: make([]int, len(in.Tasks)),
		memo:      make([]brMemo, len(in.Workers)),
	}
	g.resetMemo()
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

// resetMemo empties every worker's memo and zeroes the task stamps.
func (g *cascGame) resetMemo() {
	g.clock, g.memoHits = 0, 0
	for t := range g.taskStamp {
		g.taskStamp[t] = 0
	}
	for w := range g.memo {
		g.memo[w] = brMemo{stamp: -1}
	}
}

// touch records a Join or Leave on task t's group.
func (g *cascGame) touch(t int) {
	g.clock++
	g.taskStamp[t] = g.clock
}

// NumPlayers implements game.Game.
func (g *cascGame) NumPlayers() int { return len(g.cur) }

// leaveLoss returns ΔQ(w, t) of Equation 4 for w's current task t — what
// w's group loses when w leaves — or 0 when w is unassigned.
func (g *cascGame) leaveLoss(w int) float64 {
	if ct := g.cur[w]; ct != model.Unassigned {
		return g.groups[ct].LeaveDelta(w)
	}
	return 0
}

// moveGain returns the potential (= total cooperation score) change of
// moving worker w, whose leaveLoss is given, to task t, where w sits at
// position p of TaskCand[t], together with the member that must be
// evicted when t is full (-1 when none). For
// non-crowding moves the potential change equals the utility change of
// Equation 5 because the game is an exact potential game (Theorem V.1);
// for crowding moves we use the potential change directly, which keeps the
// dynamics monotone and convergent (DESIGN.md §4.3).
func (g *cascGame) moveGain(w, t, p int, leaveLoss float64) (gain float64, evict int) {
	grp := g.groups[t]
	if grp.Len() < grp.Capacity() {
		return grp.JoinDeltaAt(w, p) - leaveLoss, -1
	}
	// Full task: joining must crowd out the member whose replacement by w
	// yields the best resulting quality (Theorems V.3/V.4 semantics).
	bestDelta, bestOut := grp.BestSwapAt(w, p)
	return bestDelta - leaveLoss, bestOut
}

// BestResponse implements game.Game. Strategy encoding: 0..len(cand)-1 are
// the worker's candidate tasks, len(cand) is "no task".
//
// The result depends only on cur[w] and the groups of w's candidate tasks,
// and cur[w] is one of those tasks or none: every change to it is a Join
// or Leave on one of those groups. So a memoised result is returned
// unchanged while none of them has been touched since it was computed: the
// same bits a fresh evaluation would produce.
func (g *cascGame) BestResponse(w int) (int, float64, bool) {
	m := &g.memo[w]
	if g.memoCurrent(w) {
		g.memoHits++
		if m.strategy == stratNone {
			return 0, 0, false
		}
		return m.strategy, m.gain, true
	}
	s, gain, improving := g.bestResponse(w)
	*m = brMemo{stamp: g.clock, gain: gain, strategy: stratNone}
	if improving {
		m.strategy = s
	}
	return s, gain, improving
}

// memoCurrent reports whether w's memo is filled and none of w's candidate
// tasks has been touched since it was computed.
func (g *cascGame) memoCurrent(w int) bool {
	m := &g.memo[w]
	if m.stamp < 0 {
		return false
	}
	for _, t := range g.in.WorkerCand[w] {
		if g.taskStamp[t] > m.stamp {
			return false
		}
	}
	return true
}

// bestResponse evaluates BestResponse(w) from the current groups.
func (g *cascGame) bestResponse(w int) (int, float64, bool) {
	cand := g.in.WorkerCand[w]
	bestS, bestGain := stratNone, 0.0
	// Option: leave the current task entirely. Gain = -(LeaveDelta), which
	// is positive when the worker's presence lowers its group's quality.
	leaveLoss := g.leaveLoss(w)
	if g.cur[w] != model.Unassigned {
		if gain := -leaveLoss; gain > bestGain {
			bestS, bestGain = len(cand), gain
		}
	}
	for si, t := range cand {
		if t == g.cur[w] {
			continue
		}
		gain, _ := g.moveGain(w, t, g.in.CandPos(w, si), leaveLoss)
		if gain > bestGain {
			bestS, bestGain = si, gain
		}
	}
	if bestS == stratNone {
		return 0, 0, false
	}
	return bestS, bestGain, true
}

// Apply implements game.Game. The returned slice aliases the game's
// reusable buffer and is only valid until the next Apply — exactly the
// engine's consumption pattern. A nil return (nothing affected) preserves
// the engine's "unknown" convention of the original per-call slices,
// though in this game every legal move touches at least one candidate
// list.
func (g *cascGame) Apply(w, strategy int) []int {
	cand := g.in.WorkerCand[w]
	g.affected = g.affected[:0]
	leave := func() {
		if ct := g.cur[w]; ct != model.Unassigned {
			g.groups[ct].Leave(w)
			g.touch(ct)
			g.cur[w] = model.Unassigned
			g.affected = append(g.affected, g.in.TaskCand[ct]...)
		}
	}
	if strategy == len(cand) {
		leave()
		if len(g.affected) == 0 {
			return nil
		}
		return g.affected
	}
	t, p := cand[strategy], g.in.CandPos(w, strategy)
	grp := g.groups[t]
	if grp.Len() >= grp.Capacity() {
		// Crowd out the best-replacement member (recomputed here; the group
		// may have changed since BestResponse ran under eager dynamics, but
		// within one engine step it has not).
		_, out := grp.BestSwapAt(w, p)
		if out >= 0 {
			grp.Leave(out)
			g.touch(t)
			g.cur[out] = model.Unassigned
			g.affected = append(g.affected, out)
		}
	}
	leave()
	grp.JoinAt(w, p)
	g.touch(t)
	g.cur[w] = t
	g.affected = append(g.affected, g.in.TaskCand[t]...)
	return g.affected
}

// Potential implements game.Game: the overall cooperation quality revenue
// Q(T) of Equation 3, which is the exact potential of the game.
func (g *cascGame) Potential() float64 {
	var total float64
	for _, grp := range g.groups {
		total += grp.Q()
	}
	return total
}

// assignmentInto materializes the current joint strategy into the arena's
// result assignment.
func (g *cascGame) assignmentInto(ar *Arena) *model.Assignment {
	a := ar.assignmentFor(g.in)
	for w, t := range g.cur {
		if t != model.Unassigned {
			a.Assign(w, t)
		}
	}
	return a
}
