// Package resilience keeps the batch loop live under deadline pressure and
// injected faults. The paper's batch model (§V) assumes every round
// finishes before the next arrives; a production platform cannot — a slow
// EXACT or GT round must degrade instead of stalling the loop. The package
// provides two solver decorators built on the assign.Solver contract:
//
//   - Ladder runs an ordered chain of solvers (e.g. EXACT → GT → TPG →
//     RAND) under a per-Solve time budget. Each rung gets a slice of the
//     remaining budget; a rung that exceeds its slice or returns an error
//     is cancelled and the ladder falls through to the next, cheaper rung.
//     The best-scoring feasible result seen so far is returned, with the
//     empty assignment as the always-feasible floor, and casc_ladder_*
//     metrics record the rung chosen, fallbacks, budget overruns, and the
//     score sacrificed against rungs that failed.
//
//   - Chaos injects seeded, deterministic faults — latency, errors, and
//     partial-result truncation — into any solver, for tests and for
//     casc-sim -chaos rehearsals of the ladder's fallback paths.
//
// See DESIGN.md §10 for the budget-slicing and feasibility-floor
// semantics, and docs/OPERATIONS.md for tuning guidance.
package resilience

import (
	"context"
	"fmt"
	"time"

	"casc/internal/assign"
	"casc/internal/metrics"
	"casc/internal/model"
)

// Metric names recorded by the Ladder decorator. All carry a
// {solver="<primary rung name>"} label; rung-level series additionally
// carry {rung="<rung name>"} and fallbacks a {reason=...} label.
const (
	// MetricLadderSolves counts ladder Solve calls.
	MetricLadderSolves = "casc_ladder_solves_total"
	// MetricLadderRungSelected counts which rung's result was returned;
	// rung="floor" means the empty feasibility floor.
	MetricLadderRungSelected = "casc_ladder_rung_selected_total"
	// MetricLadderFallbacks counts rungs fallen through, by rung and
	// reason (error | budget | infeasible | abandoned).
	MetricLadderFallbacks = "casc_ladder_fallback_total"
	// MetricLadderOverruns counts rungs that ran past their budget slice
	// and had to be cancelled.
	MetricLadderOverruns = "casc_ladder_budget_overruns_total"
	// MetricLadderExhausted counts Solve calls that fell all the way to
	// the empty floor — no rung produced a feasible result in budget.
	MetricLadderExhausted = "casc_ladder_exhausted_total"
	// MetricLadderScoreSacrificed is a histogram of the score given up per
	// fallback solve: the best score observed on failed rungs minus the
	// returned score, clamped at zero.
	MetricLadderScoreSacrificed = "casc_ladder_score_sacrificed"
	// MetricLadderRungSeconds is a histogram of per-rung wall time.
	MetricLadderRungSeconds = "casc_ladder_rung_seconds"
)

// Fallback reasons used in the MetricLadderFallbacks reason label.
const (
	// ReasonError: the rung returned an error (its own, or injected).
	ReasonError = "error"
	// ReasonBudget: the rung exceeded its budget slice and was cancelled;
	// its partial result (if any, and feasible) still competes.
	ReasonBudget = "budget"
	// ReasonInfeasible: the rung completed but its assignment failed
	// model validation, so it was discarded.
	ReasonInfeasible = "infeasible"
	// ReasonAbandoned: the rung ignored cancellation past the grace
	// window and was left running; its eventual result is discarded.
	ReasonAbandoned = "abandoned"
)

// FloorRung is the MetricLadderRungSelected rung label recorded when the
// ladder returned the empty feasibility floor.
const FloorRung = "floor"

// DefaultGrace is how long a cancelled rung is given to surrender its
// partial result before the ladder abandons it and moves on.
const DefaultGrace = 2 * time.Millisecond

// Config parameterizes a Ladder.
type Config struct {
	// Budget is the wall-clock allowance for one Solve across all rungs.
	// Zero disables slicing: rungs run to completion in order and the
	// ladder only falls through on errors or infeasible results.
	Budget time.Duration
	// Grace bounds how long the ladder waits, after cancelling a rung,
	// for that rung to return its partial result (default DefaultGrace).
	// A rung still running past the grace is abandoned: the goroutine is
	// left to terminate on its own cancelled context and its eventual
	// result is discarded.
	Grace time.Duration
	// Metrics, when non-nil, receives the casc_ladder_* series.
	Metrics *metrics.Registry
}

// Ladder is an anytime solver: it runs its rungs — ordered from the most
// accurate to the cheapest — under the configured budget and returns the
// best-scoring feasible assignment seen. The zero-pair empty assignment is
// the built-in floor, so Solve always returns a feasible result, even when
// every rung fails or the budget is gone on arrival.
//
// Name reports the primary (first) rung's name, so Ladder composes with
// assign.Instrument, the batch engine, and the harness tables exactly like
// the bare solver it guards.
//
// A Ladder is safe for concurrent use: all per-Solve state is local.
type Ladder struct {
	rungs []assign.Solver
	cfg   Config
	lm    *ladderMetrics
}

// ladderMetrics holds the resolved solve-level metric handles; rung-level
// handles are resolved lazily (labels vary by rung and reason).
type ladderMetrics struct {
	reg        *metrics.Registry
	solver     string
	solves     *metrics.Counter
	exhausted  *metrics.Counter
	sacrificed *metrics.Histogram
}

// NewLadder builds a ladder over the given rung chain. At least one rung
// is required; the first rung names the ladder.
func NewLadder(cfg Config, rungs ...assign.Solver) (*Ladder, error) {
	if len(rungs) == 0 {
		return nil, fmt.Errorf("resilience: ladder needs at least one rung")
	}
	if cfg.Grace <= 0 {
		cfg.Grace = DefaultGrace
	}
	l := &Ladder{rungs: rungs, cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		lbl := metrics.L("solver", rungs[0].Name())
		l.lm = &ladderMetrics{
			reg:    reg,
			solver: rungs[0].Name(),
			solves: reg.Counter(MetricLadderSolves,
				"Ladder Solve calls.", lbl),
			exhausted: reg.Counter(MetricLadderExhausted,
				"Ladder solves that fell to the empty feasibility floor.", lbl),
			sacrificed: reg.Histogram(MetricLadderScoreSacrificed,
				"Score given up per fallback solve: best failed-rung score minus returned score, clamped at 0.",
				metrics.ScoreBuckets(), lbl),
		}
	}
	return l, nil
}

// Name implements assign.Solver; it is transparent: the primary rung's name.
func (l *Ladder) Name() string { return l.rungs[0].Name() }

// Outcome reports how one budgeted solve went.
type Outcome struct {
	// Rung is the name of the rung whose result was returned, or
	// FloorRung when the ladder fell to the empty floor.
	Rung string
	// RungIndex is the chain position of that rung; -1 for the floor.
	RungIndex int
	// Fallbacks counts rungs fallen through during this solve.
	Fallbacks int
	// Exhausted is true when no rung produced a feasible result — the
	// returned assignment is the empty floor.
	Exhausted bool
	// Sacrificed is the best score observed on failed rungs minus the
	// returned score, clamped at zero.
	Sacrificed float64
	// Elapsed is the solve's wall time as seen by the ladder clock.
	Elapsed time.Duration
}

// Solve implements assign.Solver. It never returns an error: rung errors
// are fallbacks and the empty assignment is the feasibility floor, so the
// batch loop keeps its round cadence no matter what the rungs do.
func (l *Ladder) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	a, _ := l.SolveBudgeted(ctx, in)
	return a, nil
}

// rungResult carries one rung's return values across the watchdog channel.
type rungResult struct {
	a   *model.Assignment
	err error
}

// SolveBudgeted runs the ladder and additionally reports the Outcome, so
// callers that must act on degradation (the HTTP platform's 503 path) can
// distinguish a clean solve from a fallback or an exhausted budget.
func (l *Ladder) SolveBudgeted(ctx context.Context, in *model.Instance) (*model.Assignment, Outcome) {
	start := now()
	out := Outcome{Rung: FloorRung, RungIndex: -1}
	best := model.NewAssignment(in) // the always-feasible floor
	bestScore := 0.0
	bestRung := -1
	lostScore := 0.0 // best score observed on rungs that fell through

	if l.lm != nil {
		l.lm.solves.Inc()
	}
	for i, rung := range l.rungs {
		if ctx.Err() != nil {
			break
		}
		slice := time.Duration(0)
		if l.cfg.Budget > 0 {
			remaining := l.cfg.Budget - now().Sub(start)
			if remaining <= 0 {
				break // budget gone; whatever is best stands
			}
			// Equal share of the remaining budget among the remaining
			// rungs: a fast (or failing) rung donates its leftover slice
			// to the rungs below it.
			slice = remaining / time.Duration(len(l.rungs)-i)
		}

		rungStart := now()
		r, timedOut, abandoned := l.runRung(ctx, rung, in, slice)
		l.observeRung(rung.Name(), now().Sub(rungStart))
		if timedOut {
			l.countOverrun(rung.Name())
		}

		if abandoned {
			out.Fallbacks++
			l.countFallback(rung.Name(), ReasonAbandoned)
			continue
		}
		feasible := r.a != nil && r.a.Validate(in) == nil
		score := 0.0
		if feasible {
			score = r.a.TotalScore(in)
			if bestRung == -1 || score > bestScore {
				best, bestScore, bestRung = r.a, score, i
			}
		} else if r.a != nil {
			// Infeasible results are discarded, but their score still
			// informs the sacrifice accounting below.
			score = r.a.TotalScore(in)
		}
		if r.err == nil && !timedOut && feasible {
			break // clean in-budget completion: the ladder exits here
		}
		out.Fallbacks++
		if score > lostScore {
			lostScore = score
		}
		switch {
		case r.err != nil:
			l.countFallback(rung.Name(), ReasonError)
		case timedOut:
			l.countFallback(rung.Name(), ReasonBudget)
		default:
			l.countFallback(rung.Name(), ReasonInfeasible)
		}
	}

	out.Elapsed = now().Sub(start)
	if bestRung >= 0 {
		out.Rung, out.RungIndex = l.rungs[bestRung].Name(), bestRung
	} else {
		out.Exhausted = true
	}
	if sac := lostScore - bestScore; sac > 0 && out.Fallbacks > 0 {
		out.Sacrificed = sac
	}
	if l.lm != nil {
		l.lm.reg.Counter(MetricLadderRungSelected,
			"Ladder solves by the rung whose result was returned (floor = empty fallback).",
			metrics.L("solver", l.lm.solver), metrics.L("rung", out.Rung)).Inc()
		if out.Exhausted {
			l.lm.exhausted.Inc()
		}
		if out.Fallbacks > 0 {
			l.lm.sacrificed.Observe(out.Sacrificed)
		}
	}
	return best, out
}

// runRung executes one rung under its slice of the budget. With a zero
// slice the rung runs unwatched (it still honours ctx itself). Otherwise a
// watchdog cancels the rung when the slice expires and waits up to the
// grace for the partial result; a rung silent past the grace is abandoned
// — its goroutine drains on its own once it observes the cancelled
// context, and its eventual result is discarded unread.
func (l *Ladder) runRung(ctx context.Context, rung assign.Solver, in *model.Instance, slice time.Duration) (r rungResult, timedOut, abandoned bool) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if slice <= 0 {
		a, err := rung.Solve(rctx, in)
		return rungResult{a, err}, false, false
	}
	done := make(chan rungResult, 1)
	go func() {
		a, err := rung.Solve(rctx, in)
		done <- rungResult{a, err}
	}()
	select {
	case r = <-done:
		return r, false, false
	case <-after(slice):
		timedOut = true
	case <-ctx.Done():
		// The round itself was cancelled; collect what the rung has.
	}
	cancel()
	select {
	case r = <-done:
		return r, timedOut, false
	case <-after(l.cfg.Grace):
		return rungResult{}, timedOut, true
	}
}

func (l *Ladder) countFallback(rung, reason string) {
	if l.lm == nil {
		return
	}
	l.lm.reg.Counter(MetricLadderFallbacks,
		"Ladder rungs fallen through, by rung and reason (error|budget|infeasible|abandoned).",
		metrics.L("solver", l.lm.solver), metrics.L("rung", rung),
		metrics.L("reason", reason)).Inc()
}

func (l *Ladder) countOverrun(rung string) {
	if l.lm == nil {
		return
	}
	l.lm.reg.Counter(MetricLadderOverruns,
		"Ladder rungs cancelled for running past their budget slice.",
		metrics.L("solver", l.lm.solver), metrics.L("rung", rung)).Inc()
}

func (l *Ladder) observeRung(rung string, d time.Duration) {
	if l.lm == nil {
		return
	}
	l.lm.reg.Histogram(MetricLadderRungSeconds,
		"Per-rung wall time in seconds.", metrics.LatencyBuckets(),
		metrics.L("solver", l.lm.solver), metrics.L("rung", rung)).Observe(d.Seconds())
}

// Chain builds the default anytime rung chain for a primary solver:
// primary → TPG → RAND(seed), skipping fallbacks that duplicate the
// primary's name. TPG is the fast deterministic middle rung; RAND is the
// near-instant last resort before the ladder's built-in empty floor.
func Chain(primary assign.Solver, seed int64) []assign.Solver {
	rungs := []assign.Solver{primary}
	if primary.Name() != "TPG" {
		rungs = append(rungs, assign.NewTPG())
	}
	if primary.Name() != "RAND" {
		rungs = append(rungs, assign.NewRandom(seed))
	}
	return rungs
}
