package assign

import (
	"context"

	"casc/internal/metrics"
	"casc/internal/model"
)

// Metric names recorded by the solver layer. Solver-agnostic series carry
// a solver="<Name>" label; solver-specific series are listed with the
// solver that emits them.
const (
	// MetricSolveSeconds is the per-Solve wall time histogram (all solvers).
	MetricSolveSeconds = "casc_solver_solve_seconds"
	// MetricSolveScore is the per-Solve total cooperation score histogram.
	MetricSolveScore = "casc_solver_score"
	// MetricSolves counts Solve calls.
	MetricSolves = "casc_solver_solves_total"
	// MetricSolveErrors counts Solve calls that returned an error.
	MetricSolveErrors = "casc_solver_errors_total"

	// MetricGTRounds counts best-response rounds run (GT family).
	MetricGTRounds = "casc_gt_rounds_total"
	// MetricGTSwaps counts strategy switches applied (GT family).
	MetricGTSwaps = "casc_gt_swaps_total"
	// MetricGTBestResponses counts best-response calls, memo hits
	// included; with LUB this stays well below players×rounds — the
	// pruning shows here.
	MetricGTBestResponses = "casc_gt_best_response_calls_total"
	// MetricGTMemoHits counts best-response calls answered from the
	// per-worker memo because none of the worker's candidate tasks changed
	// since its last evaluation (GT family; a subset of
	// MetricGTBestResponses).
	MetricGTMemoHits = "casc_gt_best_response_memo_hits_total"
	// MetricGTPrunedBestResponses counts best-response evaluations the LUB
	// dirty-set tracking skipped (players×rounds − calls, clamped at 0).
	MetricGTPrunedBestResponses = "casc_gt_lub_pruned_best_responses_total"
	// MetricGTStops counts terminations by reason (nash, threshold,
	// max-rounds, context); reason="threshold" is the TSI prune firing.
	MetricGTStops = "casc_gt_stops_total"

	// MetricTPGHeapPushes / MetricTPGHeapPops count stage-two lazy-heap
	// operations (TPG).
	MetricTPGHeapPushes = "casc_tpg_heap_pushes_total"
	MetricTPGHeapPops   = "casc_tpg_heap_pops_total"
	// MetricTPGStaleReevals counts stage-two heap entries whose cached ΔQ
	// was stale and had to be re-evaluated (TPG).
	MetricTPGStaleReevals = "casc_tpg_stale_reevals_total"
	// MetricTPGSubsetRefreshes counts stage-one best-B-subset
	// recomputations; the dirty-tracking prune keeps this far below
	// tasks×iterations (TPG).
	MetricTPGSubsetRefreshes = "casc_tpg_subset_refreshes_total"
	// MetricTPGSubsetSkips counts stage-one iterations that reused a
	// cached best B-subset instead of recomputing it (TPG prune hits).
	MetricTPGSubsetSkips = "casc_tpg_subset_skips_total"
	// MetricTPGSeedReuses counts stage-one subset refreshes whose seed pair
	// came from the task's ranked runners-up list instead of a full pair
	// scan (TPG).
	MetricTPGSeedReuses = "casc_tpg_seed_reuses_total"
	// MetricTPGWarmHits / MetricTPGWarmMisses count stage-one iteration-0
	// subsets served from (or recomputed into) a cross-round Warm cache
	// (TPG under SolveWarm).
	MetricTPGWarmHits   = "casc_tpg_warm_hits_total"
	MetricTPGWarmMisses = "casc_tpg_warm_misses_total"

	// MetricArenaReuses counts solves served by an already-used scratch
	// arena — the zero-allocation steady state (TPG and GT families).
	MetricArenaReuses = "casc_arena_reuses_total"
	// MetricArenaGrows counts scratch-arena buffer (re)allocations during a
	// solve. The first solve of a size regime grows; a steady nonzero rate
	// afterwards means instance sizes keep outrunning the arena.
	MetricArenaGrows = "casc_arena_grows_total"
)

// Instrument wraps s so every Solve records wall time, score, and call
// counts into reg under a solver="<Name>" label, and hands reg to solvers
// with internal instrumentation (GT's round/swap/prune counters, TPG's
// heap and subset counters). The wrapper is itself a Solver, so it drops
// into the batch engine, the platform, and the harness unchanged.
func Instrument(s Solver, reg *metrics.Registry) Solver {
	if reg == nil {
		return s
	}
	switch v := s.(type) {
	case *GT:
		v.Metrics = reg
	case *TPG:
		v.Metrics = reg
	case *instrumented, *instrumentedForker:
		return v // already wrapped
	}
	if _, ok := s.(Forker); ok {
		return &instrumentedForker{instrumented{inner: s, reg: reg}}
	}
	return &instrumented{inner: s, reg: reg}
}

type instrumented struct {
	inner Solver
	reg   *metrics.Registry
}

// instrumentedForker wraps a Forker. It forwards Fork (instrumenting each
// fork into the same registry) and SetArena, so the incremental engine,
// which probes for them, takes the same per-component fork-and-arena path
// with metrics on as with metrics off.
type instrumentedForker struct{ instrumented }

// Fork implements Forker.
func (i *instrumentedForker) Fork(seed int64) Solver {
	return Instrument(i.inner.(Forker).Fork(seed), i.reg)
}

// SetArena implements ArenaHolder; it is a no-op over a solver without
// arena support.
func (i *instrumentedForker) SetArena(ar *Arena) {
	if h, ok := i.inner.(ArenaHolder); ok {
		h.SetArena(ar)
	}
}

// Name implements Solver.
func (i *instrumented) Name() string { return i.inner.Name() }

// Solve implements Solver.
func (i *instrumented) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	lbl := metrics.L("solver", i.inner.Name())
	start := now()
	a, err := i.inner.Solve(ctx, in)
	i.reg.Histogram(MetricSolveSeconds, "Solver wall time per batch in seconds.",
		metrics.LatencyBuckets(), lbl).Observe(now().Sub(start).Seconds())
	i.reg.Counter(MetricSolves, "Solve calls.", lbl).Inc()
	if err != nil {
		i.reg.Counter(MetricSolveErrors, "Solve calls that failed.", lbl).Inc()
		return a, err
	}
	if a != nil {
		i.reg.Histogram(MetricSolveScore, "Total cooperation score per batch.",
			metrics.ScoreBuckets(), lbl).Observe(a.TotalScore(in))
	}
	return a, nil
}

// SolveWarm implements WarmStarter by forwarding the warm cache to the
// wrapped solver when it supports warm starts, recording the same series as
// Solve. A non-warm inner solver just solves cold — the wrapper therefore
// always satisfies WarmStarter without changing any result.
func (i *instrumented) SolveWarm(ctx context.Context, in *model.Instance, warm *Warm) (*model.Assignment, error) {
	ws, ok := i.inner.(WarmStarter)
	if !ok || warm == nil {
		return i.Solve(ctx, in)
	}
	lbl := metrics.L("solver", i.inner.Name())
	start := now()
	a, err := ws.SolveWarm(ctx, in, warm)
	i.reg.Histogram(MetricSolveSeconds, "Solver wall time per batch in seconds.",
		metrics.LatencyBuckets(), lbl).Observe(now().Sub(start).Seconds())
	i.reg.Counter(MetricSolves, "Solve calls.", lbl).Inc()
	if err != nil {
		i.reg.Counter(MetricSolveErrors, "Solve calls that failed.", lbl).Inc()
		return a, err
	}
	if a != nil {
		i.reg.Histogram(MetricSolveScore, "Total cooperation score per batch.",
			metrics.ScoreBuckets(), lbl).Observe(a.TotalScore(in))
	}
	return a, nil
}
