// Package batch implements the batch-based framework of §III (Algorithm 1):
// over a time interval Φ the platform periodically gathers the available
// spatial tasks and cooperation-aware workers, retrieves each worker's
// valid tasks through the spatial index, delegates the batch to a solver
// (TPG, GT, ...), and dispatches the resulting worker-and-task pairs.
//
// The simulator tracks worker availability across batches: workers
// committed to a task travel to it, perform it for its service duration,
// and rejoin the pool at the task's location. Tasks that fail to attract at
// least B workers stay available until their deadlines pass; tasks assigned
// fewer than B workers in a batch are not dispatched (their revenue would
// be zero), so those workers also stay available — matching the paper's
// retry semantics for "tasks that are not assigned with enough workers
// during the last batch".
package batch

import (
	"context"
	"fmt"
	"time"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/incremental"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
	"casc/internal/trace"
)

// Metric names recorded by the batch engine when Config.Metrics is set.
const (
	MetricRounds          = "casc_batch_rounds_total"
	MetricNoopRounds      = "casc_batch_noop_rounds_total"
	MetricDispatchedTasks = "casc_batch_dispatched_tasks_total"
	MetricDispatchedPairs = "casc_batch_dispatched_pairs_total"
	MetricExpiredTasks    = "casc_batch_expired_tasks_total"
	MetricDepartedWorkers = "casc_batch_departed_workers_total"
	MetricRoundScore      = "casc_batch_score"
	MetricPendingTasks    = "casc_batch_pending_tasks"
	MetricAvailWorkers    = "casc_batch_available_workers"
	MetricBusyWorkers     = "casc_batch_busy_workers"
)

// engineMetrics holds the resolved metric handles for one Run.
type engineMetrics struct {
	rounds     *metrics.Counter
	noopRounds *metrics.Counter
	dispTasks  *metrics.Counter
	dispPairs  *metrics.Counter
	expired    *metrics.Counter
	departed   *metrics.Counter
	roundScore *metrics.Histogram
	pending    *metrics.Gauge
	avail      *metrics.Gauge
	busy       *metrics.Gauge
}

func newEngineMetrics(reg *metrics.Registry, solver string) *engineMetrics {
	if reg == nil {
		return nil
	}
	lbl := metrics.L("solver", solver)
	return &engineMetrics{
		rounds:     reg.Counter(MetricRounds, "Batch rounds simulated.", lbl),
		noopRounds: reg.Counter(MetricNoopRounds, "Rounds short-circuited as provably no-op.", lbl),
		dispTasks:  reg.Counter(MetricDispatchedTasks, "Tasks dispatched with ≥ B workers.", lbl),
		dispPairs:  reg.Counter(MetricDispatchedPairs, "Worker-and-task pairs dispatched.", lbl),
		expired:    reg.Counter(MetricExpiredTasks, "Tasks dropped past their deadline.", lbl),
		departed:   reg.Counter(MetricDepartedWorkers, "Workers who ran out of patience.", lbl),
		roundScore: reg.Histogram(MetricRoundScore, "Cooperation score per batch round.", metrics.ScoreBuckets(), lbl),
		pending:    reg.Gauge(MetricPendingTasks, "Tasks awaiting assignment after the last round.", lbl),
		avail:      reg.Gauge(MetricAvailWorkers, "Workers available after the last round.", lbl),
		busy:       reg.Gauge(MetricBusyWorkers, "Workers travelling or performing after the last round.", lbl),
	}
}

// Source feeds workers and tasks into the simulation. Rounds are numbered
// from 0; round r starts at time Config.Interval * r.
type Source interface {
	// WorkersAt returns the workers that newly arrive at round r. Worker IDs
	// must be globally unique and index into Quality().
	WorkersAt(round int) []model.Worker
	// TasksAt returns the tasks that are newly created at round r.
	TasksAt(round int) []model.Task
	// Quality is the global cooperation model, indexed by worker ID.
	Quality() model.QualityModel
}

// Config drives a simulation.
type Config struct {
	// Solver performs each batch assignment.
	Solver assign.Solver
	// Rounds is the number of batches (the paper's R; Table II uses 10).
	Rounds int
	// Interval is the wall-clock length of one batch (default 1.0).
	Interval float64
	// B is the least required number of workers per task.
	B int
	// ServiceDuration is how long a dispatched task takes once all its
	// workers arrive (default 1.0).
	ServiceDuration float64
	// Patience, when positive, makes workers leave the platform after
	// sitting unassigned for that many consecutive batches — real platforms
	// lose idle workers. Zero means workers wait forever (the paper's
	// implicit assumption).
	Patience int
	// Trace, when non-nil, receives one record per batch (the dispatched
	// pairs carry external worker/task IDs).
	Trace *trace.Writer
	// TraceRun names the run in trace records (default: the solver name).
	TraceRun string
	// Metrics, when non-nil, receives structured instrumentation: per-round
	// gauges (pending tasks, available/busy workers), counters (rounds,
	// dispatched pairs/tasks, expired tasks, departed workers), the
	// per-round score histogram, and — via assign.Instrument — the
	// solver's wall-time/score histograms and internal counters. This is
	// the structured replacement for reading BatchStats.Elapsed by hand;
	// the field stays for backward compatibility.
	Metrics *metrics.Registry
	// Seed feeds per-component seed derivation under Incremental (only
	// randomized solvers notice) and the chaos fault schedule under Chaos.
	Seed int64
	// RoundBudget, when positive, bounds each round's solve wall time by
	// wrapping the solver in a resilience.Ladder over the default anytime
	// chain (Solver → TPG → RAND): a round whose primary solve overruns
	// the budget falls through to cheaper rungs and, at worst, to the
	// empty feasibility floor, so the batch loop keeps its cadence. Tasks
	// left unassigned by a degraded round simply stay pending and carry
	// over to the next round, exactly like tasks that failed to attract B
	// workers (§V deadline semantics).
	RoundBudget time.Duration
	// Chaos, when non-nil, wraps every ladder rung in seeded fault
	// injection (see resilience.ChaosConfig) — rehearsal mode for the
	// ladder's fallback paths. Setting Chaos forces the ladder on even
	// with a zero RoundBudget. The Seed field above drives the schedule;
	// ChaosConfig.Seed is overridden per rung.
	Chaos *resilience.ChaosConfig
	// Observer, when non-nil, receives every round after the solved
	// assignment has been validated and the round's trace record written,
	// outside the timed build/solve windows — the hook behind scenario
	// decision tracing (SLO accounting, counterfactual alternate solves).
	// in and a are nil on short-circuited no-op rounds (nothing was solved
	// by construction). The observer must not mutate in or a; a returned
	// error aborts the run.
	Observer func(ctx context.Context, round int, now float64, in *model.Instance, a *model.Assignment) error
	// Incremental replaces the per-round rebuild-and-solve with the
	// persistent cross-round engine of internal/incremental: the candidate
	// graph is maintained under churn, only components touched since the
	// previous round are re-solved, and clean components carry their
	// assignment forward. For deterministic solvers (TPG, GT, GT+LUB)
	// every round's score and assignment is bitwise identical to the
	// default path.
	Incremental bool
}

// BatchStats records one batch of the simulation.
type BatchStats struct {
	Round            int
	Time             float64
	AvailableWorkers int
	AvailableTasks   int
	ValidPairs       int
	AssignedWorkers  int
	DispatchedTasks  int
	Score            float64
	// Build is the round's graph-maintenance time: the stage's expiry,
	// admission and candidate building (plus partitioning on the
	// incremental path), from BeginRound through Plan. Elapsed is the
	// solve proper; Build+Elapsed is the round's pipeline latency.
	Build   time.Duration
	Elapsed time.Duration
}

// Result aggregates a simulation.
type Result struct {
	Batches         []BatchStats
	TotalScore      float64
	DispatchedTasks int
	ExpiredTasks    int
	// UpperTotal sums the per-batch UPPER estimates (Equation 9).
	UpperTotal float64
	// TaskWaitTotal sums, over dispatched tasks, the time between creation
	// and the batch that dispatched them.
	TaskWaitTotal float64
	// DepartedWorkers counts workers who ran out of patience.
	DepartedWorkers int
}

// TaskWaitMean returns the mean wait (creation → dispatching batch) of the
// dispatched tasks, or 0 when none dispatched. Tasks dispatched in their
// creation round wait 0.
func (r *Result) TaskWaitMean() float64 {
	if r.DispatchedTasks == 0 {
		return 0
	}
	return r.TaskWaitTotal / float64(r.DispatchedTasks)
}

// WorkerUtilization returns the fraction of available worker-batches that
// ended up assigned: Σ assigned / Σ available over all batches.
func (r *Result) WorkerUtilization() float64 {
	assigned, avail := 0, 0
	for _, b := range r.Batches {
		assigned += b.AssignedWorkers
		avail += b.AvailableWorkers
	}
	if avail == 0 {
		return 0
	}
	return float64(assigned) / float64(avail)
}

// DispatchRate returns the fraction of concluded tasks (dispatched or
// expired) that were dispatched.
func (r *Result) DispatchRate() float64 {
	total := r.DispatchedTasks + r.ExpiredTasks
	if total == 0 {
		return 0
	}
	return float64(r.DispatchedTasks) / float64(total)
}

// busyWorker is a worker performing a task.
type busyWorker struct {
	worker  model.Worker
	freeAt  float64
	locWhen model.Task // task whose location the worker ends at
}

// sim is one prepared simulation: the normalized config, the decorated
// solver stack, and the metric handles. Both graph stages (the from-scratch
// default and the incremental engine) run through the same round loop, so
// admission, aging, dispatch, accounting, metrics, and tracing stay a
// single code path.
type sim struct {
	cfg     Config
	src     Source
	quality model.QualityModel
	solver  assign.Solver
	em      *engineMetrics
}

// newSim validates cfg and builds the solver stack exactly once: the
// budget/chaos ladder, and instrumentation.
func newSim(cfg Config, src Source) (*sim, error) {
	if cfg.Solver == nil {
		return nil, fmt.Errorf("batch: nil solver")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("batch: rounds = %d", cfg.Rounds)
	}
	if cfg.B < 2 {
		return nil, fmt.Errorf("batch: B = %d, want ≥ 2", cfg.B)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 1
	}
	if cfg.ServiceDuration <= 0 {
		cfg.ServiceDuration = 1
	}
	solver := cfg.Solver
	if cfg.RoundBudget > 0 || cfg.Chaos != nil {
		rungs := resilience.Chain(solver, cfg.Seed)
		if cfg.Chaos != nil {
			cc := *cfg.Chaos
			cc.Seed = cfg.Seed
			if cc.Metrics == nil {
				cc.Metrics = cfg.Metrics
			}
			rungs = resilience.WithChaos(rungs, cc)
		}
		ladder, err := resilience.NewLadder(resilience.Config{
			Budget:  cfg.RoundBudget,
			Metrics: cfg.Metrics,
		}, rungs...)
		if err != nil {
			return nil, err
		}
		solver = ladder
	}
	if cfg.Metrics != nil {
		solver = assign.Instrument(solver, cfg.Metrics)
	}
	return &sim{
		cfg:     cfg,
		src:     src,
		quality: src.Quality(),
		solver:  solver,
		em:      newEngineMetrics(cfg.Metrics, cfg.Solver.Name()),
	}, nil
}

// Run simulates Algorithm 1 for cfg.Rounds batches.
func Run(ctx context.Context, cfg Config, src Source) (*Result, error) {
	s, err := newSim(cfg, src)
	if err != nil {
		return nil, err
	}
	var st stage = &scratchStage{b: s.cfg.B}
	if s.cfg.Incremental {
		st = engineStage{incremental.New(incremental.Config{
			B:       s.cfg.B,
			Carry:   true,
			Seed:    s.cfg.Seed,
			Metrics: s.cfg.Metrics,
		})}
	}
	return s.run(ctx, st)
}

// stage is the graph stage of a round: it holds the live workers and
// tasks, builds the round's instance with its candidate lists, solves it,
// and removes what the round consumed. Its cadence is *incremental.Engine's:
// BeginRound → AddWorker*/AddTask* → Plan → (Quality set) → Solve → Commit.
// Both stages keep entities in admission order through removals, so a
// worker's position is the same in either.
type stage interface {
	BeginRound(now float64) []int
	AddWorker(w model.Worker)
	AddTask(t model.Task)
	Plan() *incremental.Round
	Solve(ctx context.Context, solver assign.Solver) (*model.Assignment, error)
	// Upper is assign.Upper of the planned instance; call it before Commit.
	Upper() float64
	Commit(a *model.Assignment, removeWorkers, removeTasks []int)
	NumWorkers() int
	NumTasks() int
	// quiescent reports whether, given zero churn since the previous
	// round, no task expires at now and every time gate (worker arrival,
	// task creation) had already passed at prevNow, the timestamp the
	// previous zero-valid-pair verdict was computed at.
	quiescent(now, prevNow float64) bool
}

// engineStage is the incremental stage: the persistent engine maintains
// the candidate graph and component partition across rounds, re-solves
// only the components touched since the previous round, and carries every
// clean component's assignment forward verbatim. It never short-circuits a
// round.
type engineStage struct{ *incremental.Engine }

func (engineStage) quiescent(_, _ float64) bool { return false }

// scratchStage is the from-scratch stage: every round rebuilds the
// instance, its R*-tree candidate lists, and the solution from the live
// workers and tasks.
type scratchStage struct {
	b       int
	now     float64
	workers []model.Worker
	tasks   []model.Task
	expired []int
	round   incremental.Round
}

func (s *scratchStage) NumWorkers() int { return len(s.workers) }
func (s *scratchStage) NumTasks() int   { return len(s.tasks) }

// BeginRound drops the tasks past their deadline and returns their IDs.
func (s *scratchStage) BeginRound(now float64) []int {
	s.now = now
	s.expired = s.expired[:0]
	kept := s.tasks[:0]
	for _, t := range s.tasks {
		if t.Deadline > now {
			kept = append(kept, t)
		} else {
			s.expired = append(s.expired, t.ID)
		}
	}
	s.tasks = kept
	return s.expired
}

func (s *scratchStage) AddWorker(w model.Worker) { s.workers = append(s.workers, w) }
func (s *scratchStage) AddTask(t model.Task)     { s.tasks = append(s.tasks, t) }

// Plan builds the batch instance (Algorithm 1 lines 2-5) on the live
// slices. Commit replaces them with new ones rather than compacting them,
// so the instance's entities stay as planned while the round's trace and
// observer read them after Commit.
func (s *scratchStage) Plan() *incremental.Round {
	in := &model.Instance{B: s.b, Now: s.now, Workers: s.workers, Tasks: s.tasks}
	in.BuildCandidates(model.IndexGrid)
	s.round = incremental.Round{In: in}
	return &s.round
}

// Solve solves the whole instance (line 6).
func (s *scratchStage) Solve(ctx context.Context, solver assign.Solver) (*model.Assignment, error) {
	return solver.Solve(ctx, s.round.In)
}

func (s *scratchStage) Upper() float64 { return assign.Upper(s.round.In) }

// Commit removes the given ascending positions into new slices and drops
// the round's instance, so the stage holds nothing between rounds but the
// live entities.
func (s *scratchStage) Commit(_ *model.Assignment, removeWorkers, removeTasks []int) {
	s.workers = removeAt(s.workers, removeWorkers)
	s.tasks = removeAt(s.tasks, removeTasks)
	s.round = incremental.Round{}
}

func (s *scratchStage) quiescent(now, prevNow float64) bool {
	for _, t := range s.tasks {
		if t.Deadline <= now || t.Created > prevNow {
			return false
		}
	}
	for _, w := range s.workers {
		if w.Arrive > prevNow {
			return false
		}
	}
	return true
}

// removeAt returns xs without the ascending positions pos.
func removeAt[T any](xs []T, pos []int) []T {
	var kept []T
	for i, x := range xs {
		if len(pos) > 0 && pos[0] == i {
			pos = pos[1:]
			continue
		}
		kept = append(kept, x)
	}
	return kept
}

// run is the batch round loop of Algorithm 1 over one graph stage. For
// deterministic solvers the two stages are bitwise interchangeable.
func (s *sim) run(ctx context.Context, st stage) (*Result, error) {
	cfg := s.cfg
	var (
		idleFor []int // consecutive unassigned batches, aligned with the stage's workers
		busy    []busyWorker
		res     = &Result{}
		prevVP  = -1 // previous round's valid-pair count; -1 = unknown
	)

	for round := 0; round < cfg.Rounds; round++ {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		now := float64(round) * cfg.Interval
		expiredBefore, departedBefore := res.ExpiredTasks, res.DepartedWorkers

		// Sources are consulted exactly once per round, outside the timed
		// build window, short-circuit or not.
		newWorkers := s.src.WorkersAt(round)
		newTasks := s.src.TasksAt(round)

		var (
			bs         = BatchStats{Round: round, Time: now}
			in         *model.Instance
			a          *model.Assignment
			upper      float64
			dispatched []bool
			doneTasks  []int
		)
		// No-op short-circuit: with zero churn (no frees, arrivals, or
		// expiries) and a previous round that had zero valid pairs with
		// every time gate already passed, this round provably reproduces
		// it — empty assignment, zero score, zero upper — so skip the
		// instance build and solve and run only the aging bookkeeping.
		// The time-gate scan is needed because a worker Arrive or task
		// Created in the future can validate pairs by time alone.
		if prevVP == 0 && len(newWorkers) == 0 && len(newTasks) == 0 &&
			st.quiescent(now, now-cfg.Interval) && !freesBy(busy, now) {
			if s.em != nil {
				s.em.noopRounds.Inc()
			}
		} else {
			// Expire tasks, then admit in one order: the workers whose
			// tasks finished (Algorithm 1: "workers that have finished the
			// previous assigned tasks") in busy order, the arrivals, and
			// the new tasks.
			buildStart := time.Now()
			res.ExpiredTasks += len(st.BeginRound(now))
			stillBusy := busy[:0]
			for _, b := range busy {
				if b.freeAt <= now {
					w := b.worker
					w.Loc = b.locWhen.Loc
					w.Arrive = b.freeAt
					st.AddWorker(w)
					idleFor = append(idleFor, 0)
				} else {
					stillBusy = append(stillBusy, b)
				}
			}
			busy = stillBusy
			for _, w := range newWorkers {
				st.AddWorker(w)
				idleFor = append(idleFor, 0)
			}
			for _, t := range newTasks {
				if t.Capacity < cfg.B {
					return nil, fmt.Errorf("batch: task %d capacity %d below B=%d", t.ID, t.Capacity, cfg.B)
				}
				st.AddTask(t)
			}

			// Plan the round and attach the quality model (a fixed function
			// of worker external IDs, which is what licenses the engine's
			// carry).
			in = st.Plan().In
			ids := make([]int, len(in.Workers))
			for i, w := range in.Workers {
				ids[i] = w.ID
			}
			in.Quality = coop.NewSubset(s.quality, ids)
			bs.Build = time.Since(buildStart)

			start := time.Now()
			var err error
			a, err = st.Solve(ctx, s.solver)
			bs.Elapsed = time.Since(start)
			if err != nil {
				return res, fmt.Errorf("batch: round %d: %w", round, err)
			}
			if err := a.Validate(in); err != nil {
				return res, fmt.Errorf("batch: round %d solver produced invalid assignment: %w", round, err)
			}
			bs.ValidPairs = in.NumValidPairs()
			dispatched, doneTasks = s.dispatch(in, a, now, &bs, &busy, res)
			upper = st.Upper()
			res.UpperTotal += upper
		}
		bs.AvailableWorkers, bs.AvailableTasks = st.NumWorkers(), st.NumTasks()
		st.Commit(a, s.age(res, &idleFor, dispatched), doneTasks)

		res.Batches = append(res.Batches, bs)
		res.TotalScore += bs.Score
		res.DispatchedTasks += bs.DispatchedTasks
		prevVP = bs.ValidPairs

		s.emitRound(&bs, res, expiredBefore, departedBefore, st.NumTasks(), st.NumWorkers(), len(busy))
		if err := s.traceRound(round, now, &bs, upper, float64(bs.Elapsed.Microseconds())/1000, in, a); err != nil {
			return res, err
		}
		if err := s.observe(ctx, round, now, in, a); err != nil {
			return res, err
		}
	}
	return res, nil
}

// freesBy reports whether some busy worker is free again at now.
func freesBy(busy []busyWorker, now float64) bool {
	for _, b := range busy {
		if b.freeAt <= now {
			return true
		}
	}
	return false
}

// age ends the round for the pool: dispatched workers (marked by position;
// nil marks none) leave it, the rest sit one more batch unassigned and
// depart once their patience runs out. It compacts idleFor to the
// survivors and returns the ascending positions that leave.
func (s *sim) age(res *Result, idleFor *[]int, dispatched []bool) []int {
	var remove []int
	next := (*idleFor)[:0]
	for i, idle := range *idleFor {
		if dispatched != nil && dispatched[i] {
			remove = append(remove, i)
			continue
		}
		idle++
		if s.cfg.Patience > 0 && idle >= s.cfg.Patience {
			res.DepartedWorkers++
			remove = append(remove, i)
			continue
		}
		next = append(next, idle)
	}
	*idleFor = next
	return remove
}

// observe invokes the configured round observer, if any.
func (s *sim) observe(ctx context.Context, round int, now float64, in *model.Instance, a *model.Assignment) error {
	if s.cfg.Observer == nil {
		return nil
	}
	if err := s.cfg.Observer(ctx, round, now, in, a); err != nil {
		return fmt.Errorf("batch: round %d observer: %w", round, err)
	}
	return nil
}

// dispatch applies the dispatch semantics of Algorithm 1 lines 7-8 to a
// solved round: every group reaching B performs its task, its workers go
// busy until all have arrived and the service completed. It fills bs and
// res and returns the dispatched worker marks and the ascending positions
// of the dispatched tasks.
func (s *sim) dispatch(in *model.Instance, a *model.Assignment, now float64, bs *BatchStats, busy *[]busyWorker, res *Result) (dispatchedWorker []bool, dispatchedTasks []int) {
	cfg := s.cfg
	dispatchedWorker = make([]bool, len(in.Workers))
	for ti, ws := range a.TaskWorkers {
		if len(ws) < cfg.B {
			continue
		}
		task := in.Tasks[ti]
		// All workers must arrive before cooperation starts.
		arrival := now
		for _, wi := range ws {
			t := now + in.Workers[wi].Loc.Dist(task.Loc)/maxf(in.Workers[wi].Speed, 1e-9)
			if t > arrival {
				arrival = t
			}
		}
		freeAt := arrival + cfg.ServiceDuration
		for _, wi := range ws {
			dispatchedWorker[wi] = true
			*busy = append(*busy, busyWorker{worker: in.Workers[wi], freeAt: freeAt, locWhen: task})
		}
		dispatchedTasks = append(dispatchedTasks, ti)
		bs.DispatchedTasks++
		bs.AssignedWorkers += len(ws)
		bs.Score += in.GroupQuality(ws, task.Capacity)
		res.TaskWaitTotal += now - task.Created
	}
	return dispatchedWorker, dispatchedTasks
}

// emitRound flushes the per-round metric series.
func (s *sim) emitRound(bs *BatchStats, res *Result, expiredBefore, departedBefore, pending, avail, busy int) {
	if s.em == nil {
		return
	}
	s.em.rounds.Inc()
	s.em.dispTasks.Add(uint64(bs.DispatchedTasks))
	s.em.dispPairs.Add(uint64(bs.AssignedWorkers))
	s.em.expired.Add(uint64(res.ExpiredTasks - expiredBefore))
	s.em.departed.Add(uint64(res.DepartedWorkers - departedBefore))
	s.em.roundScore.Observe(bs.Score)
	s.em.pending.Set(float64(pending))
	s.em.avail.Set(float64(avail))
	s.em.busy.Set(float64(busy))
}

// traceRound appends one trace record; in and a may be nil for rounds that
// were short-circuited (no pairs by construction).
func (s *sim) traceRound(round int, now float64, bs *BatchStats, upper, elapsedMS float64, in *model.Instance, a *model.Assignment) error {
	if s.cfg.Trace == nil {
		return nil
	}
	runName := s.cfg.TraceRun
	if runName == "" {
		runName = s.cfg.Solver.Name()
	}
	rec := trace.Record{
		Run:       runName,
		Round:     round,
		Time:      now,
		Solver:    s.cfg.Solver.Name(),
		Workers:   bs.AvailableWorkers,
		Tasks:     bs.AvailableTasks,
		Score:     bs.Score,
		Upper:     upper,
		ElapsedMS: elapsedMS,
	}
	if a != nil {
		for ti, ws := range a.TaskWorkers {
			if len(ws) < s.cfg.B {
				continue
			}
			for _, wi := range ws {
				rec.Pairs = append(rec.Pairs, model.Pair{
					Worker: in.Workers[wi].ID,
					Task:   in.Tasks[ti].ID,
				})
			}
		}
	}
	return s.cfg.Trace.Append(rec)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// GeneratorSource adapts per-round generator functions to Source.
type GeneratorSource struct {
	WorkersFn func(round int) []model.Worker
	TasksFn   func(round int) []model.Task
	Model     model.QualityModel
}

// WorkersAt implements Source.
func (g *GeneratorSource) WorkersAt(round int) []model.Worker {
	if g.WorkersFn == nil {
		return nil
	}
	return g.WorkersFn(round)
}

// TasksAt implements Source.
func (g *GeneratorSource) TasksAt(round int) []model.Task {
	if g.TasksFn == nil {
		return nil
	}
	return g.TasksFn(round)
}

// Quality implements Source.
func (g *GeneratorSource) Quality() model.QualityModel { return g.Model }

// RoundRobinIDs renumbers worker IDs across rounds so they stay unique and
// within the quality model's range: round r worker i gets ID
// (r*perRound + i) mod modelSize. Helper for synthetic sources whose
// quality model is defined over a fixed universe.
func RoundRobinIDs(ws []model.Worker, round, perRound, modelSize int) []model.Worker {
	out := make([]model.Worker, len(ws))
	for i, w := range ws {
		w.ID = (round*perRound + i) % modelSize
		out[i] = w
	}
	return out
}
