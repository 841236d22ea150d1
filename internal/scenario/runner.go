package scenario

import (
	"context"
	"errors"
	"fmt"
	"time"

	"casc/internal/assign"
	"casc/internal/batch"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
	"casc/internal/server"
	"casc/internal/shard"
	"casc/internal/trace"
)

// RunConfig drives one scenario run on top of a generated (or replayed)
// plan.
type RunConfig struct {
	// Plan is the fully generated arrival schedule.
	Plan *Plan
	// Solver overrides the spec's solver ("" keeps it) — the knob behind
	// counterfactual replays under a different policy.
	Solver string
	// CounterfactualK enables decision tracing: each round, the first K
	// spec alternates re-solve the identical instance and the score gap is
	// recorded as regret. Negative runs every alternate; zero disables.
	// Counterfactuals need the monolithic observer hook and therefore
	// reject Shards > 0.
	CounterfactualK int
	// Budget, Chaos and Incremental mirror the batch.Config fields of the
	// same names (Budget is batch.Config.RoundBudget).
	Budget      time.Duration
	Chaos       *resilience.ChaosConfig
	Incremental bool
	// Shards, when positive, routes the plan through a sharded cluster of
	// that many shards instead of the monolithic batch loop.
	Shards int
	// Patience mirrors batch.Config.Patience (monolithic only).
	Patience int
	// Trace, when non-nil, receives the per-round decision records — the
	// chosen run under the solver's name, counterfactuals under
	// "cf:<solver>".
	Trace *trace.Writer
	// Metrics, when non-nil, receives engine instrumentation plus the
	// casc_scenario_* series.
	Metrics *metrics.Registry
}

// Report is the outcome of a scenario run.
type Report struct {
	// Scenario and Solver identify the run.
	Scenario string `json:"scenario"`
	Solver   string `json:"solver"`
	// Workers and Tasks are the plan's arrival totals.
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	// Score, Upper, Dispatched and Expired aggregate the run; Exhausted
	// counts sharded rounds dropped by budget admission.
	Score      float64 `json:"score"`
	Upper      float64 `json:"upper"`
	Dispatched int     `json:"dispatched"`
	Expired    int     `json:"expired"`
	Exhausted  int     `json:"exhausted,omitempty"`
	// Result is the monolithic engine's full result (nil when sharded).
	Result *batch.Result `json:"-"`
	// SLO is the per-class outcome (nil when the spec declares no classes).
	SLO *SLOReport `json:"slo,omitempty"`
	// Counterfactual is the decision-tracing report (nil when disabled).
	Counterfactual *CounterfactualReport `json:"counterfactual,omitempty"`
}

// Run executes the plan. Same plan, same config, same result — including
// the trace stream — bitwise (deterministic solvers; sharded runs need no
// solve budget for this to hold, since budgets measure wall time).
func Run(ctx context.Context, cfg RunConfig) (*Report, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("scenario: RunConfig.Plan is nil")
	}
	solverName := cfg.Solver
	if solverName == "" {
		solverName = cfg.Plan.Spec.Solver
	}
	if cfg.Shards > 0 {
		if cfg.CounterfactualK != 0 {
			return nil, fmt.Errorf("scenario: counterfactuals need the monolithic engine (drop -shards or -counterfactual-k)")
		}
		return runSharded(ctx, cfg, solverName)
	}
	return runMonolithic(ctx, cfg, solverName)
}

func runMonolithic(ctx context.Context, cfg RunConfig, solverName string) (*Report, error) {
	plan := cfg.Plan
	spec := plan.Spec
	solver, err := assign.ByName(solverName, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	slo := newSLOTracker(plan)
	var cf *counterfactual
	if cfg.CounterfactualK != 0 {
		cfSpec := spec
		cfSpec.Solver = solverName
		if cfg.Solver != "" && cfg.Solver != spec.Solver {
			// Replaying under a different policy: the original solver is the
			// natural alternate unless the spec already lists others.
			cfSpec.Alternates = remove(spec.Alternates, solverName)
			if len(cfSpec.Alternates) == 0 {
				cfSpec.Alternates = []string{spec.Solver}
			}
		}
		k := cfg.CounterfactualK
		if k < 0 {
			k = 0 // keep all alternates
		}
		cf, err = newCounterfactual(cfSpec, k, cfg.Trace)
		if err != nil {
			return nil, err
		}
	}
	observer := func(octx context.Context, round int, now float64, in *model.Instance, a *model.Assignment) error {
		if in != nil && a != nil {
			for ti, ws := range a.TaskWorkers {
				if len(ws) < spec.B {
					continue
				}
				slo.observeDispatch(in.Tasks[ti].ID, round)
			}
		}
		if cf != nil {
			return cf.observe(octx, round, now, in, a)
		}
		return nil
	}
	res, err := batch.Run(ctx, batch.Config{
		Solver:      solver,
		Rounds:      plan.Rounds(),
		Interval:    Interval,
		B:           spec.B,
		Patience:    cfg.Patience,
		Trace:       cfg.Trace,
		Metrics:     cfg.Metrics,
		Seed:        spec.Seed,
		RoundBudget: cfg.Budget,
		Chaos:       cfg.Chaos,
		Observer:    observer,
		Incremental: cfg.Incremental,
	}, plan.Source())
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Scenario:   spec.Name,
		Solver:     solverName,
		Workers:    plan.NumWorkers(),
		Tasks:      plan.NumTasks(),
		Score:      res.TotalScore,
		Upper:      res.UpperTotal,
		Dispatched: res.DispatchedTasks,
		Expired:    res.ExpiredTasks,
		Result:     res,
	}
	if len(spec.SLOClasses) > 0 {
		rep.SLO = slo.report(plan.Rounds())
	}
	if cf != nil {
		rep.Counterfactual = cf.report()
	}
	publishMetrics(cfg.Metrics, plan, rep.SLO, rep.Counterfactual)
	return rep, nil
}

// runSharded feeds the plan's arrivals into a sharded cluster round by
// round. Cluster IDs are allocated in registration order, so the runner
// keeps explicit plan-ID ↔ cluster-ID maps and reports everything —
// trace pairs, SLO accounting — in plan IDs.
func runSharded(ctx context.Context, cfg RunConfig, solverName string) (*Report, error) {
	plan := cfg.Plan
	spec := plan.Spec
	c, err := shard.NewCluster(shard.Config{
		K: cfg.Shards, B: spec.B, Metrics: cfg.Metrics,
		SolveBudget: cfg.Budget, Chaos: cfg.Chaos,
		Incremental: cfg.Incremental,
	})
	if err != nil {
		return nil, err
	}
	slo := newSLOTracker(plan)
	taskOfCluster := map[int]int{}   // cluster task ID -> plan task ID
	workerOfCluster := map[int]int{} // cluster worker ID -> plan worker ID
	rep := &Report{
		Scenario: spec.Name,
		Solver:   solverName,
		Workers:  plan.NumWorkers(),
		Tasks:    plan.NumTasks(),
	}
	for round := 0; round < plan.Rounds(); round++ {
		for _, w := range plan.workersByRound[round] {
			cid, err := c.RegisterWorker(w.Loc, w.Speed, w.Radius)
			if err != nil {
				return nil, fmt.Errorf("scenario: round %d register worker %d: %w", round, w.ID, err)
			}
			workerOfCluster[cid] = w.ID
		}
		for _, t := range plan.tasksByRound[round] {
			cid, err := c.PostTask(t.Loc, t.Capacity, t.Deadline)
			if err != nil {
				return nil, fmt.Errorf("scenario: round %d post task %d: %w", round, t.ID, err)
			}
			taskOfCluster[cid] = t.ID
		}
		res, err := c.RunBatch(ctx, solverName)
		if errors.Is(err, server.ErrBudgetExhausted) {
			rep.Exhausted++
			if cfg.Trace != nil {
				if err := cfg.Trace.Append(trace.Record{
					Run: solverName, Round: round, Time: float64(round) * Interval,
					Solver: solverName,
				}); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		rep.Score += res.Score
		rep.Upper += res.Upper
		rep.Dispatched += res.DispatchedTasks
		rep.Expired += res.ExpiredTasks
		rec := trace.Record{
			Run: solverName, Round: round, Time: float64(round) * Interval,
			Solver: solverName, Score: res.Score, Upper: res.Upper,
		}
		rated := map[int]bool{}
		for _, pr := range res.Pairs {
			planTask, ok := taskOfCluster[pr.Task]
			if !ok {
				return nil, fmt.Errorf("scenario: round %d dispatched unknown cluster task %d", round, pr.Task)
			}
			planWorker, ok := workerOfCluster[pr.Worker]
			if !ok {
				return nil, fmt.Errorf("scenario: round %d dispatched unknown cluster worker %d", round, pr.Worker)
			}
			rec.Pairs = append(rec.Pairs, model.Pair{Worker: planWorker, Task: planTask})
			slo.observeDispatch(planTask, round)
			if !rated[pr.Task] {
				rated[pr.Task] = true
				// Deterministic rating keeps the cluster's learned quality
				// model — and therefore subsequent rounds — replayable.
				s := 0.5
				if planTask%2 == 1 {
					s = 1.0
				}
				if err := c.RateTask(pr.Task, s); err != nil {
					return nil, err
				}
			}
		}
		if cfg.Trace != nil {
			if err := cfg.Trace.Append(rec); err != nil {
				return nil, err
			}
		}
	}
	if len(spec.SLOClasses) > 0 {
		rep.SLO = slo.report(plan.Rounds())
	}
	publishMetrics(cfg.Metrics, plan, rep.SLO, nil)
	return rep, nil
}

// remove returns names without any occurrence of drop.
func remove(names []string, drop string) []string {
	var out []string
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}
