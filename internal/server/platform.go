// Package server exposes the CA-SC platform over HTTP: workers register
// with their locations and working areas, requesters post time-constrained
// multi-worker tasks, the platform runs batch assignments with any of the
// paper's solvers, and requesters rate finished tasks — ratings feed the
// Equation 1 cooperation-quality estimator, closing the loop the paper
// describes ("platforms allow task requesters to rate the results").
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
)

// Platform is the in-memory spatial crowdsourcing platform: one Registry,
// one cooperation history, and the batch rounds that assign them. All
// methods are safe for concurrent use. Writes, batch rounds included, take
// turns on one lock; reads share it.
type Platform struct {
	mu          sync.RWMutex
	b           int
	solveBudget time.Duration // Config.SolveBudget
	history     *coop.History
	registry    *Registry
	clock       func() float64

	nextWorkerID int
	nextTaskID   int
	batches      int

	// advance steps the default internal clock; nil when Config.Clock was
	// supplied by the caller.
	advance func()

	metrics *metrics.Registry
	pprof   bool
	pm      platformMetrics
}

// platformMetrics holds the platform's resolved round metric handles; the
// state series belong to its registry.
type platformMetrics struct {
	batches    *metrics.Counter
	dispatched *metrics.Counter
	pairs      *metrics.Counter
	expired    *metrics.Counter
}

// Metric names recorded by the platform. HTTP-layer names live in http.go.
const (
	MetricWorkersRegistered = "casc_platform_workers_registered_total"
	MetricTasksPosted       = "casc_platform_tasks_posted_total"
	MetricBatches           = "casc_platform_batches_total"
	MetricDispatchedTasks   = "casc_platform_dispatched_tasks_total"
	MetricDispatchedPairs   = "casc_platform_dispatched_pairs_total"
	MetricExpiredTasks      = "casc_platform_expired_tasks_total"
	MetricRatings           = "casc_platform_ratings_total"
	MetricAvailableWorkers  = "casc_platform_available_workers"
	MetricBusyWorkers       = "casc_platform_busy_workers"
	MetricOpenTasks         = "casc_platform_open_tasks"
	MetricTotalScore        = "casc_platform_total_score"
)

// Config configures a Platform.
type Config struct {
	// B is the least required number of workers per task (≥ 2).
	B int
	// Alpha and Omega parameterize the Equation 1 estimator (default 0.5
	// each, the paper's configuration).
	Alpha, Omega float64
	// Clock returns the current platform time; defaults to a monotonic
	// batch counter advanced by RunBatch (useful for tests and demos).
	Clock func() float64
	// Metrics receives the platform's instrumentation and is served by
	// GET /metrics. Defaults to a fresh registry per platform; pass a
	// shared one to aggregate several platforms into one scrape target.
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// platform mux. Off by default: profiling endpoints expose internals
	// and cost CPU, so production deployments opt in explicitly.
	EnablePprof bool
	// SolveBudget, when positive, bounds each POST /batch solve: the
	// request runs under a context deadline of this duration and the
	// solver is wrapped in a resilience.Ladder (solver → TPG → RAND), so
	// a slow solve degrades to cheaper rungs instead of queueing without
	// bound. A request whose budget is exhausted — the deadline passed
	// while queued for the platform lock, or no ladder rung produced a
	// feasible result — fails with ErrBudgetExhausted, which the HTTP
	// layer maps to 503 with a Retry-After header.
	SolveBudget time.Duration
}

// NewPlatform returns an empty platform.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.B < 2 {
		return nil, fmt.Errorf("server: B = %d, want ≥ 2", cfg.B)
	}
	if cfg.Alpha == 0 && cfg.Omega == 0 {
		cfg.Alpha, cfg.Omega = 0.5, 0.5
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p := &Platform{
		b:           cfg.B,
		solveBudget: cfg.SolveBudget,
		history:     coop.NewHistory(0, cfg.Alpha, cfg.Omega),
		registry: NewRegistry(RegistryMetrics{
			Available:  reg.Gauge(MetricAvailableWorkers, "Workers currently available."),
			Busy:       reg.Gauge(MetricBusyWorkers, "Workers on dispatched, unrated tasks."),
			Open:       reg.Gauge(MetricOpenTasks, "Tasks currently open."),
			Score:      reg.Gauge(MetricTotalScore, "Cumulative cooperation score."),
			Registered: reg.Counter(MetricWorkersRegistered, "Workers ever registered."),
			Posted:     reg.Counter(MetricTasksPosted, "Tasks ever posted."),
			Ratings:    reg.Counter(MetricRatings, "Requester ratings recorded."),
		}),
		clock:   cfg.Clock,
		metrics: reg,
		pprof:   cfg.EnablePprof,
		pm: platformMetrics{
			batches:    reg.Counter(MetricBatches, "RunBatch calls completed."),
			dispatched: reg.Counter(MetricDispatchedTasks, "Tasks dispatched with ≥ B workers."),
			pairs:      reg.Counter(MetricDispatchedPairs, "Worker-and-task pairs dispatched."),
			expired:    reg.Counter(MetricExpiredTasks, "Tasks dropped past their deadline."),
		},
	}
	if p.clock == nil {
		p.startClock(0)
	}
	return p, nil
}

// startClock starts the default clock, a batch counter that RunBatch
// advances, at t.
func (p *Platform) startClock(t float64) {
	p.clock = func() float64 { return t }
	p.advance = func() { t++ }
}

// Metrics returns the platform's metrics registry (the one GET /metrics
// serves).
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

// RegisterWorker adds an available worker and returns its ID.
func (p *Platform) RegisterWorker(loc geo.Point, speed, radius float64) (int, error) {
	if err := model.CheckWorkerInput(loc, speed, radius); err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextWorkerID
	p.nextWorkerID++
	p.history.Grow(p.nextWorkerID)
	p.registry.AddWorker(model.Worker{
		ID: id, Loc: loc, Speed: speed, Radius: radius, Arrive: p.clock(),
	})
	return id, nil
}

// PostTask adds an open task and returns its ID. Deadline is absolute
// platform time.
func (p *Platform) PostTask(loc geo.Point, capacity int, deadline float64) (int, error) {
	if err := model.CheckTaskInput(loc, deadline); err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if capacity < p.b {
		return 0, fmt.Errorf("server: capacity %d below B=%d", capacity, p.b)
	}
	now := p.clock()
	if deadline <= now {
		return 0, fmt.Errorf("server: deadline %v not in the future (now %v)", deadline, now)
	}
	id := p.nextTaskID
	p.nextTaskID++
	p.registry.AddTask(model.Task{
		ID: id, Loc: loc, Capacity: capacity, Created: now, Deadline: deadline,
	})
	return id, nil
}

// BatchResult reports one RunBatch call.
type BatchResult struct {
	Pairs           []model.Pair // worker ID → task ID pairs actually dispatched
	Score           float64
	Upper           float64
	DispatchedTasks int
	ExpiredTasks    int
}

// ErrBudgetExhausted reports a RunBatch whose Config.SolveBudget ran out
// with nothing to show: either the request's deadline passed while it was
// queued for the platform lock, or every ladder rung failed or overran its
// slice. The HTTP layer maps it to 503 Service Unavailable + Retry-After.
var ErrBudgetExhausted = errors.New("server: solve budget exhausted")

// RunBatch executes one batch of Algorithm 1 with the named solver: expired
// tasks are dropped, the current available workers and open tasks form an
// instance, groups reaching B are dispatched (their workers leave the pool,
// the tasks await ratings). Returns the dispatched pairs with *external*
// worker and task IDs. With Config.SolveBudget set, the solve runs under a
// resilience.Ladder and ErrBudgetExhausted is returned — dispatching
// nothing — when the budget is gone before any rung delivers.
//
// RunBatch holds the platform lock from the snapshot to the commit, so
// requests made meanwhile wait for the round and join the next one.
func (p *Platform) RunBatch(ctx context.Context, solverName string) (*BatchResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The seed is the batch count, read under the same lock that advances
	// it, so two concurrent batches never solve with the same seed.
	seed := int64(p.batches)
	solve, err := NewSolver(solverName, seed, seed, p.solveBudget, nil, p.metrics)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		// The request's solve deadline expired while it was queued for the
		// lock: refuse instead of solving with no budget left.
		return nil, fmt.Errorf("%w: deadline passed while queued", ErrBudgetExhausted)
	}
	now := p.clock()
	res := &BatchResult{}
	workers, tasks, expired := p.registry.BeginRound(now)
	res.ExpiredTasks = expired

	in := &model.Instance{B: p.b, Now: now, Workers: workers, Tasks: tasks}
	in.BuildCandidates(model.IndexGrid)
	in.Quality = model.WorkerSubset(p.history, workers)
	Prepare(ctx, in, p.solveBudget)(in)
	a, exhausted, err := solve(ctx, in)
	if err != nil {
		return nil, err
	}
	if exhausted {
		return nil, fmt.Errorf("%w: no rung finished within %v", ErrBudgetExhausted, p.solveBudget)
	}
	res.Upper = assign.Upper(in)

	// Tasks and groups come in ascending ID order, so the pairs are sorted
	// by task, then worker.
	d := &RoundDelta{}
	for ti, ws := range a.TaskWorkers {
		if len(ws) < p.b {
			continue // below B: keep the task open and the workers available
		}
		g := NewGroup(in, ti, ws)
		for _, w := range g.Workers {
			d.RemoveWorkers = append(d.RemoveWorkers, w.ID)
			res.Pairs = append(res.Pairs, model.Pair{Worker: w.ID, Task: g.Task})
		}
		d.RemoveTasks = append(d.RemoveTasks, g.Task)
		d.Groups = append(d.Groups, g)
		res.Score += in.TaskQuality(ti, ws)
	}
	res.DispatchedTasks = len(d.Groups)
	d.Score = res.Score
	p.registry.ApplyRound(d)
	p.batches++
	p.pm.batches.Inc()
	p.pm.dispatched.Add(uint64(res.DispatchedTasks))
	p.pm.pairs.Add(uint64(len(res.Pairs)))
	p.pm.expired.Add(uint64(res.ExpiredTasks))
	if p.advance != nil {
		p.advance()
	}
	return res, nil
}

// NewSolver builds the solver stack both serving tiers solve with: the
// named solver seeded with seed and instrumented on reg; with a positive
// budget, a resilience ladder over it (solver → TPG → RAND seeded with
// round), each rung wrapped in chaos injection when chaos is non-nil.
// The returned solve reports exhausted when no rung delivered within the
// budget. It changes nothing on the instances it solves; Prepare readies
// them.
func NewSolver(name string, seed, round int64, budget time.Duration, chaos *resilience.ChaosConfig, reg *metrics.Registry) (
	solve func(context.Context, *model.Instance) (a *model.Assignment, exhausted bool, err error), err error) {
	solver, err := assign.ByName(name, seed)
	if err != nil {
		return nil, err
	}
	solver = assign.Instrument(solver, reg)
	if budget <= 0 {
		return func(ctx context.Context, in *model.Instance) (*model.Assignment, bool, error) {
			a, err := solver.Solve(ctx, in)
			return a, false, err
		}, nil
	}
	ladder, err := resilience.NewChainLadder(resilience.Config{Budget: budget, Metrics: reg}, solver, round, chaos)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, in *model.Instance) (*model.Assignment, bool, error) {
		a, out := ladder.SolveBudgeted(ctx, in)
		return a, out.Exhausted, nil
	}, nil
}

// Prepare applies the serving tiers' one quality rule to in, a round's
// instance, before any solve reads it: without a budget it fills in's task
// blocks (model.Instance.FillBlocks) for the solves, UPPER and dispatch; a
// budgeted round fills none, since no rung's slice would pay for it. The
// returned memoize wraps an instance's Quality in a memo sized for its
// tasks without a block, Σ |TaskCand_t|(|TaskCand_t|−1)/2 pairs. The
// platform memoizes in at once; a cluster memoizes each shard's
// sub-instance and, since coop.Cached is not safe for concurrent use, in
// only after its shards return.
func Prepare(ctx context.Context, in *model.Instance, budget time.Duration) (memoize func(*model.Instance)) {
	if budget <= 0 {
		in.FillBlocks(ctx)
	}
	return func(x *model.Instance) {
		pairs := 0
		for t, c := range x.TaskCand {
			if x.TaskBlock(t) == nil {
				pairs += len(c) * (len(c) - 1) / 2
			}
		}
		x.Quality = coop.NewCachedFor(x.Quality, pairs)
	}
}

// RateTask records the requester's rating s ∈ [0,1] for a dispatched task.
// Every worker pair of the group receives the rating per Equation 1; the
// workers rejoin the pool at the task's location.
func (p *Platform) RateTask(taskID int, score float64) error {
	if math.IsNaN(score) || score < 0 || score > 1 {
		return fmt.Errorf("server: rating %v outside [0,1]", score)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	g, err := p.registry.TakeRated(taskID)
	if err != nil {
		return fmt.Errorf("server: task %d %w", taskID, err)
	}
	p.history.RecordGroup(g.IDs(), score)
	for _, w := range g.Workers {
		w.Loc, w.Arrive = g.Loc, p.clock()
		p.registry.PutWorker(w)
	}
	return nil
}

// Quality returns the current Equation 1 estimate for two workers.
func (p *Platform) Quality(i, k int) (float64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i == k || i < 0 || k < 0 || i >= p.nextWorkerID || k >= p.nextWorkerID {
		return 0, fmt.Errorf("server: bad worker pair (%d,%d)", i, k)
	}
	return p.history.Quality(i, k), nil
}

// Status is a platform snapshot.
type Status struct {
	AvailableWorkers int     `json:"available_workers"`
	OpenTasks        int     `json:"open_tasks"`
	Batches          int     `json:"batches"`
	DispatchedTasks  int     `json:"dispatched_tasks"`
	TotalScore       float64 `json:"total_score"`
	Now              float64 `json:"now"`
}

// Status reports the platform snapshot. It takes the shared lock, so status
// polls run alongside each other, wait for a running round to commit, and
// always report counts that agree.
func (p *Platform) Status() Status {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := p.registry.Status()
	return Status{
		AvailableWorkers: st.AvailableWorkers,
		OpenTasks:        st.OpenTasks,
		Batches:          p.batches,
		DispatchedTasks:  st.DispatchedTasks,
		TotalScore:       st.TotalScore,
		Now:              p.clock(),
	}
}
