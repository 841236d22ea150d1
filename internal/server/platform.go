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
	"sort"
	"sync"
	"time"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
)

// Platform is the in-memory spatial crowdsourcing platform. All methods
// are safe for concurrent use.
type Platform struct {
	mu          sync.RWMutex
	b           int
	solveBudget time.Duration // Config.SolveBudget
	history     *coop.History
	clock       func() float64

	workers      map[int]model.Worker // available workers by ID
	tasks        map[int]model.Task   // open tasks by ID
	nextWorkerID int
	nextTaskID   int

	// dispatched remembers which workers served each dispatched task (and
	// their full records) so a later rating can be attributed to the right
	// pairs and the workers can rejoin the pool at the task's location.
	dispatched map[int]dispatchedGroup
	rated      map[int]bool

	totalScore      float64
	batches         int
	dispatchedTasks int
	busyCount       int // workers on dispatched, unrated tasks

	// advance steps the default internal clock; nil when Config.Clock was
	// supplied by the caller.
	advance func()

	metrics *metrics.Registry
	pprof   bool
	pm      platformMetrics
}

// platformMetrics holds the platform's resolved metric handles.
type platformMetrics struct {
	registered *metrics.Counter
	posted     *metrics.Counter
	batches    *metrics.Counter
	dispatched *metrics.Counter
	pairs      *metrics.Counter
	expired    *metrics.Counter
	ratings    *metrics.Counter
	availGauge *metrics.Gauge
	busyGauge  *metrics.Gauge
	openGauge  *metrics.Gauge
	scoreGauge *metrics.Gauge
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
		clock:       cfg.Clock,
		workers:     make(map[int]model.Worker),
		tasks:       make(map[int]model.Task),
		dispatched:  make(map[int]dispatchedGroup),
		rated:       make(map[int]bool),
		metrics:     reg,
		pprof:       cfg.EnablePprof,
		pm: platformMetrics{
			registered: reg.Counter(MetricWorkersRegistered, "Workers ever registered."),
			posted:     reg.Counter(MetricTasksPosted, "Tasks ever posted."),
			batches:    reg.Counter(MetricBatches, "RunBatch calls completed."),
			dispatched: reg.Counter(MetricDispatchedTasks, "Tasks dispatched with ≥ B workers."),
			pairs:      reg.Counter(MetricDispatchedPairs, "Worker-and-task pairs dispatched."),
			expired:    reg.Counter(MetricExpiredTasks, "Tasks dropped past their deadline."),
			ratings:    reg.Counter(MetricRatings, "Requester ratings recorded."),
			availGauge: reg.Gauge(MetricAvailableWorkers, "Workers currently available."),
			busyGauge:  reg.Gauge(MetricBusyWorkers, "Workers on dispatched, unrated tasks."),
			openGauge:  reg.Gauge(MetricOpenTasks, "Tasks currently open."),
			scoreGauge: reg.Gauge(MetricTotalScore, "Cumulative cooperation score."),
		},
	}
	if p.clock == nil {
		batch := 0.0
		p.clock = func() float64 { return batch }
		// RunBatch advances this implicit clock via advanceClock.
		p.advance = func() { batch++ }
	}
	return p, nil
}

// Metrics returns the platform's metrics registry (the one GET /metrics
// serves).
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

// syncGauges refreshes the state gauges. Callers must hold p.mu.
func (p *Platform) syncGauges() {
	p.pm.availGauge.Set(float64(len(p.workers)))
	p.pm.busyGauge.Set(float64(p.busyCount))
	p.pm.openGauge.Set(float64(len(p.tasks)))
	p.pm.scoreGauge.Set(p.totalScore)
}

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
	p.workers[id] = model.Worker{
		ID: id, Loc: loc, Speed: speed, Radius: radius, Arrive: p.clock(),
	}
	p.pm.registered.Inc()
	p.syncGauges()
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
	if deadline <= p.clock() {
		return 0, fmt.Errorf("server: deadline %v not in the future (now %v)", deadline, p.clock())
	}
	id := p.nextTaskID
	p.nextTaskID++
	p.tasks[id] = model.Task{
		ID: id, Loc: loc, Capacity: capacity, Created: p.clock(), Deadline: deadline,
	}
	p.pm.posted.Inc()
	p.syncGauges()
	return id, nil
}

// dispatchedGroup snapshots a dispatched task's worker group.
type dispatchedGroup struct {
	ids     []int
	workers []model.Worker
	loc     geo.Point
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
func (p *Platform) RunBatch(ctx context.Context, solverName string) (*BatchResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The seed is the batch count, read under the same lock that advances
	// it, so two concurrent batches never solve with the same seed.
	seed := int64(p.batches)
	solver, err := assign.ByName(solverName, seed)
	if err != nil {
		return nil, err
	}
	solver = assign.Instrument(solver, p.metrics)
	var ladder *resilience.Ladder
	if p.solveBudget > 0 {
		ladder, err = resilience.NewLadder(
			resilience.Config{Budget: p.solveBudget, Metrics: p.metrics},
			resilience.Chain(solver, seed)...)
		if err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		// The request's solve deadline expired while it was queued for the
		// lock: refuse instead of solving with no budget left.
		return nil, fmt.Errorf("%w: deadline passed while queued", ErrBudgetExhausted)
	}
	now := p.clock()

	res := &BatchResult{}
	for id, t := range p.tasks {
		if t.Deadline <= now {
			delete(p.tasks, id)
			res.ExpiredTasks++
		}
	}

	// Dense instance over current state.
	workerIDs := make([]int, 0, len(p.workers))
	for id := range p.workers {
		workerIDs = append(workerIDs, id)
	}
	sort.Ints(workerIDs)
	taskIDs := make([]int, 0, len(p.tasks))
	for id := range p.tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Ints(taskIDs)

	in := &model.Instance{B: p.b, Now: now}
	for _, id := range workerIDs {
		in.Workers = append(in.Workers, p.workers[id])
	}
	for _, id := range taskIDs {
		in.Tasks = append(in.Tasks, p.tasks[id])
	}
	in.Quality = coop.NewCached(coop.NewSubset(p.history, workerIDs))
	in.BuildCandidates(model.IndexRTree)

	var a *model.Assignment
	if ladder != nil {
		var out resilience.Outcome
		a, out = ladder.SolveBudgeted(ctx, in)
		if out.Exhausted {
			return nil, fmt.Errorf("%w: no rung finished within %v", ErrBudgetExhausted, p.solveBudget)
		}
	} else {
		a, err = solver.Solve(ctx, in)
		if err != nil {
			return nil, err
		}
	}
	res.Upper = assign.Upper(in)

	for ti, ws := range a.TaskWorkers {
		if len(ws) < p.b {
			continue // below B: keep the task open and the workers available
		}
		taskID := taskIDs[ti]
		grp := dispatchedGroup{loc: in.Tasks[ti].Loc}
		for _, wi := range ws {
			workerID := workerIDs[wi]
			grp.ids = append(grp.ids, workerID)
			grp.workers = append(grp.workers, p.workers[workerID])
			delete(p.workers, workerID)
			p.busyCount++
			res.Pairs = append(res.Pairs, model.Pair{Worker: workerID, Task: taskID})
		}
		sort.Ints(grp.ids)
		res.Score += in.GroupQuality(ws, in.Tasks[ti].Capacity)
		p.dispatched[taskID] = grp
		delete(p.tasks, taskID)
		res.DispatchedTasks++
	}
	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i].Task != res.Pairs[j].Task {
			return res.Pairs[i].Task < res.Pairs[j].Task
		}
		return res.Pairs[i].Worker < res.Pairs[j].Worker
	})
	p.totalScore += res.Score
	p.batches++
	p.dispatchedTasks += res.DispatchedTasks
	p.pm.batches.Inc()
	p.pm.dispatched.Add(uint64(res.DispatchedTasks))
	p.pm.pairs.Add(uint64(len(res.Pairs)))
	p.pm.expired.Add(uint64(res.ExpiredTasks))
	p.syncGauges()
	if p.advance != nil {
		p.advance()
	}
	return res, nil
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
	grp, ok := p.dispatched[taskID]
	if !ok {
		return fmt.Errorf("server: task %d was not dispatched", taskID)
	}
	if p.rated[taskID] {
		return fmt.Errorf("server: task %d already rated", taskID)
	}
	p.rated[taskID] = true
	p.history.RecordGroup(grp.ids, score)
	// The group finished the job: its workers become available again at the
	// task's location.
	for _, w := range grp.workers {
		w.Loc = grp.loc
		w.Arrive = p.clock()
		p.workers[w.ID] = w
	}
	p.busyCount -= len(grp.workers)
	p.pm.ratings.Inc()
	p.syncGauges()
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

// Status reports the platform snapshot. Reads take the shared lock, so
// status polls (and the other read-only endpoints) proceed concurrently
// with each other and never queue behind one another during a long solve.
func (p *Platform) Status() Status {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Status{
		AvailableWorkers: len(p.workers),
		OpenTasks:        len(p.tasks),
		Batches:          p.batches,
		DispatchedTasks:  p.dispatchedTasks,
		TotalScore:       p.totalScore,
		Now:              p.clock(),
	}
}
