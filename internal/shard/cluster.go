package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/partition"
	"casc/internal/resilience"
)

// Cluster-level metric names.
const (
	MetricClusterShards       = "casc_cluster_shards"
	MetricClusterBatches      = "casc_cluster_batches_total"
	MetricClusterBatchSeconds = "casc_cluster_batch_seconds"
	MetricClusterDispatched   = "casc_cluster_dispatched_tasks_total"
	MetricClusterPairs        = "casc_cluster_dispatched_pairs_total"
	MetricClusterExpired      = "casc_cluster_expired_tasks_total"
	MetricClusterScore        = "casc_cluster_total_score"
)

// ErrBudgetExhausted reports a RunBatch whose Config.SolveBudget ran out
// before every shard delivered: either the request's deadline passed while
// queued for the round lock, or some shard's ladder had no rung finish in
// time. Nothing is dispatched — a partial round would break the N-vs-1
// shard equivalence — and the HTTP layer maps the error to 503 with a
// Retry-After header.
var ErrBudgetExhausted = errors.New("shard: solve budget exhausted")

// Config configures a Cluster.
type Config struct {
	// K is the number of spatial shards (>= 1).
	K int
	// B is the least required number of workers per task (>= 2).
	B int
	// Alpha and Omega parameterize the Equation 1 estimator (default 0.5
	// each, the paper's configuration).
	Alpha, Omega float64
	// Resolution is the per-axis cell resolution of the shard geometry
	// (0: DefaultResolution).
	Resolution int
	// Router is the placement policy for new workers and tasks
	// (nil: region affinity).
	Router Policy
	// AdmissionRate, when positive, enables token-bucket admission control
	// at this many admitted requests per second on the mutating HTTP
	// endpoints; AdmissionBurst is the bucket capacity (0: ceil of rate).
	AdmissionRate  float64
	AdmissionBurst int
	// Clock returns the current platform time; defaults to a monotonic
	// round counter advanced by RunBatch.
	Clock func() float64
	// Metrics receives all cluster and per-shard instrumentation and is
	// served by GET /metrics. Defaults to a fresh registry.
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SolveBudget, when positive, bounds each shard's per-round solve with
	// a resilience.Ladder (solver -> TPG -> RAND) and each POST /batch with
	// a context deadline, exactly like the unsharded platform.
	SolveBudget time.Duration
	// Chaos, when non-nil, wraps every ladder rung with seeded fault
	// injection (requires SolveBudget > 0); used by the chaos rehearsals.
	Chaos *resilience.ChaosConfig
	// Incremental maintains the cluster-wide candidate graph in a
	// persistent engine across rounds instead of rebuilding it from the
	// shard snapshots each RunBatch. Results are bitwise identical; only
	// the per-round graph work shrinks. Carry-forward stays off here
	// because the cooperation history mutates between rounds.
	Incremental bool
}

// Cluster is a K-shard CA-SC platform. All methods are safe for concurrent
// use. Registrations, ratings and reads synchronize per shard; RunBatch
// serializes rounds on its own lock but solves outside the shard locks, so
// no read or registration ever waits on a solve.
type Cluster struct {
	b           int
	alpha       float64
	omega       float64
	solveBudget time.Duration
	chaos       *resilience.ChaosConfig
	geom        Geometry
	router      Policy
	admission   *TokenBucket
	shards      []*Shard
	pprof       bool

	nextWorkerID atomic.Int64
	nextTaskID   atomic.Int64
	rounds       atomic.Int64
	clock        func() float64
	advance      func()

	batchMu sync.Mutex // serializes RunBatch rounds

	// Incremental-round state, guarded by batchMu: the persistent engine
	// and the home shard of every entity currently inside it.
	inc        *incremental.Engine
	workerHome map[int]int
	taskHome   map[int]int

	metrics *metrics.Registry
	cm      clusterMetrics
}

// clusterMetrics holds the cluster's resolved metric handles.
type clusterMetrics struct {
	shardsGauge *metrics.Gauge
	batches     *metrics.Counter
	batchSec    *metrics.Histogram
	dispatched  *metrics.Counter
	pairs       *metrics.Counter
	expired     *metrics.Counter
	scoreGauge  *metrics.Gauge
}

// NewCluster returns an empty K-shard cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.B < 2 {
		return nil, fmt.Errorf("shard: B = %d, want >= 2", cfg.B)
	}
	geom, err := NewGeometry(cfg.Resolution, cfg.K)
	if err != nil {
		return nil, err
	}
	if cfg.Alpha == 0 && cfg.Omega == 0 {
		cfg.Alpha, cfg.Omega = 0.5, 0.5
	}
	if cfg.Chaos != nil && cfg.SolveBudget <= 0 {
		return nil, fmt.Errorf("shard: chaos injection requires SolveBudget > 0")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	router := cfg.Router
	if router == nil {
		router = regionPolicy{}
	}
	c := &Cluster{
		b:           cfg.B,
		alpha:       cfg.Alpha,
		omega:       cfg.Omega,
		solveBudget: cfg.SolveBudget,
		chaos:       cfg.Chaos,
		geom:        geom,
		router:      router,
		pprof:       cfg.EnablePprof,
		clock:       cfg.Clock,
		metrics:     reg,
		cm: clusterMetrics{
			shardsGauge: reg.Gauge(MetricClusterShards, "Number of spatial shards."),
			batches:     reg.Counter(MetricClusterBatches, "Cluster batch rounds completed."),
			batchSec: reg.Histogram(MetricClusterBatchSeconds, "End-to-end cluster batch round latency.",
				metrics.LatencyBuckets()),
			dispatched: reg.Counter(MetricClusterDispatched, "Tasks dispatched with >= B workers, cluster-wide."),
			pairs:      reg.Counter(MetricClusterPairs, "Worker-and-task pairs dispatched, cluster-wide."),
			expired:    reg.Counter(MetricClusterExpired, "Tasks dropped past their deadline, cluster-wide."),
			scoreGauge: reg.Gauge(MetricClusterScore, "Cumulative cooperation score, cluster-wide."),
		},
	}
	if cfg.AdmissionRate > 0 {
		burst := cfg.AdmissionBurst
		if burst <= 0 {
			burst = int(cfg.AdmissionRate + 0.999)
		}
		c.admission, err = NewTokenBucket(cfg.AdmissionRate, burst, reg)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.K; i++ {
		c.shards = append(c.shards, newShard(i, cfg.Alpha, cfg.Omega, reg))
	}
	if cfg.Incremental {
		c.inc = incremental.New(incremental.Config{B: cfg.B, OrderByID: true, Metrics: reg})
		c.workerHome = make(map[int]int)
		c.taskHome = make(map[int]int)
		for _, sh := range c.shards {
			sh.trackPending = true
		}
	}
	if c.clock == nil {
		c.clock = func() float64 { return float64(c.rounds.Load()) }
		c.advance = func() { c.rounds.Add(1) }
	}
	c.cm.shardsGauge.Set(float64(cfg.K))
	return c, nil
}

// Now returns the cluster's current platform time.
func (c *Cluster) Now() float64 { return c.clock() }

// clusterQuality estimates Equation 1 qualities from the pair statistics
// accumulated across every shard's history: ratings recorded on different
// shards for the same worker pair aggregate exactly as one global history
// would (sums and counts add).
type clusterQuality struct{ c *Cluster }

func (q clusterQuality) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	var sum float64
	var cnt int
	for _, sh := range q.c.shards {
		s, n := sh.history.PairStats(i, k)
		sum += s
		cnt += n
	}
	hist := q.c.omega
	if cnt > 0 {
		hist = sum / float64(cnt)
	}
	return q.c.alpha*q.c.omega + (1-q.c.alpha)*hist
}

func (q clusterQuality) NumWorkers() int { return int(q.c.nextWorkerID.Load()) }

// route picks the home shard for a new entity at loc.
func (c *Cluster) route(loc geo.Point) int {
	loads := make([]int, len(c.shards))
	for i, sh := range c.shards {
		loads[i] = sh.load()
	}
	s := c.router.Route(RouteInfo{Loc: loc, Owner: c.geom.ShardOf(loc), Loads: loads})
	if s < 0 || s >= len(c.shards) {
		s = c.geom.ShardOf(loc)
	}
	return s
}

// RegisterWorker adds an available worker and returns its cluster-unique ID.
func (c *Cluster) RegisterWorker(loc geo.Point, speed, radius float64) (int, error) {
	if err := model.CheckWorkerInput(loc, speed, radius); err != nil {
		return 0, fmt.Errorf("shard: %w", err)
	}
	id := int(c.nextWorkerID.Add(1) - 1)
	c.shards[c.route(loc)].addWorker(model.Worker{
		ID: id, Loc: loc, Speed: speed, Radius: radius, Arrive: c.clock(),
	})
	return id, nil
}

// PostTask adds an open task and returns its cluster-unique ID. Deadline is
// absolute platform time.
func (c *Cluster) PostTask(loc geo.Point, capacity int, deadline float64) (int, error) {
	if err := model.CheckTaskInput(loc, deadline); err != nil {
		return 0, fmt.Errorf("shard: %w", err)
	}
	if capacity < c.b {
		return 0, fmt.Errorf("shard: capacity %d below B=%d", capacity, c.b)
	}
	if deadline <= c.clock() {
		return 0, fmt.Errorf("shard: deadline %v not in the future (now %v)", deadline, c.clock())
	}
	id := int(c.nextTaskID.Add(1) - 1)
	c.shards[c.route(loc)].addTask(model.Task{
		ID: id, Loc: loc, Capacity: capacity, Created: c.clock(), Deadline: deadline,
	})
	return id, nil
}

// Quality returns the current cluster-wide Equation 1 estimate for two
// workers.
func (c *Cluster) Quality(i, k int) (float64, error) {
	n := int(c.nextWorkerID.Load())
	if i == k || i < 0 || k < 0 || i >= n || k >= n {
		return 0, fmt.Errorf("shard: bad worker pair (%d,%d)", i, k)
	}
	return clusterQuality{c}.Quality(i, k), nil
}

// RateTask records the requester's rating s in [0,1] for a dispatched task.
// The rating lands in the history of the shard that owns the task's region;
// the group's workers rejoin the pool at the task's location, re-homed by
// the router — the rating-side half of the ghost/handoff protocol.
func (c *Cluster) RateTask(taskID int, score float64) error {
	if math.IsNaN(score) || score < 0 || score > 1 {
		return fmt.Errorf("shard: rating %v outside [0,1]", score)
	}
	for _, sh := range c.shards {
		grp, ok := sh.takeRated(taskID)
		if !ok {
			continue
		}
		sh.history.RecordGroup(grp.ids, score)
		for i, w := range grp.workers {
			w.Loc = grp.loc
			w.Arrive = c.clock()
			home := c.route(w.Loc)
			c.shards[home].addWorker(w)
			if home != grp.homes[i] {
				c.shards[home].sm.handoffs.Inc()
			}
		}
		return nil
	}
	for _, sh := range c.shards {
		if sh.hasDispatched(taskID) {
			return fmt.Errorf("shard: task %d already rated", taskID)
		}
	}
	return fmt.Errorf("shard: task %d was not dispatched", taskID)
}

// BatchResult reports one cluster RunBatch round.
type BatchResult struct {
	Pairs           []model.Pair // worker ID -> task ID pairs actually dispatched
	Score           float64
	Upper           float64
	DispatchedTasks int
	ExpiredTasks    int
	// Components is the number of validity-graph components this round;
	// BorderComponents of them crossed a shard boundary and were pinned to
	// the shard owning their lowest cell. GhostWorkers counts workers
	// solved by a shard other than their registry home.
	Components       int
	BorderComponents int
	GhostWorkers     int
}

// pinnedWork is the per-shard slice of one round: the components pinned to
// the shard and the union of their global instance positions.
type pinnedWork struct {
	comps   int
	border  int
	ghosts  int
	workers []int
	tasks   []int
}

// RunBatch executes one globally coordinated batch round of Algorithm 1
// with the named solver. Every shard drops its expired tasks and snapshots
// its registries; the coordinator merges the snapshots into one instance
// (positions ordered by cluster-unique ID, so the merge is independent of
// K), builds candidates, and decomposes the validity graph into connected
// components. Each component is pinned to the shard owning its lowest cell
// — a component touching several shard regions is a border component, and
// the workers it drags across the boundary are ghosts — and every shard
// with pinned work solves its union sub-instance concurrently. The merged
// result is bitwise-identical to a 1-shard (monolithic) run for the
// deterministic solver family (TPG, GT, GT+LUB, EXACT), because those
// solvers' decisions depend only on index order within a component.
//
// With Config.SolveBudget set, each shard's solve runs under a resilience
// ladder; if any shard exhausts its budget the whole round returns
// ErrBudgetExhausted and dispatches nothing, keeping rounds all-or-nothing.
func (c *Cluster) RunBatch(ctx context.Context, solverName string) (*BatchResult, error) {
	if _, err := assign.ByName(solverName, 0); err != nil {
		return nil, err
	}
	c.batchMu.Lock()
	defer c.batchMu.Unlock()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%w: deadline passed while queued", ErrBudgetExhausted)
	}
	start := now()
	seed := c.rounds.Load()
	nowT := c.clock()
	res := &BatchResult{}

	// Phases A+B: assemble the round's global instance and components —
	// either rebuilt from fresh shard snapshots, or maintained across
	// rounds by the persistent engine. Both produce the identical
	// ID-ordered instance, so everything downstream is mode-blind.
	var in *model.Instance
	var comps []partition.Component
	var workerHome, taskHome map[int]int
	if c.inc != nil {
		in, comps, workerHome, taskHome = c.incrementalRound(nowT, res)
	} else {
		in, comps, workerHome, taskHome = c.snapshotRound(nowT, res)
	}
	// Snapshot the per-shard histories into one flat history for the whole
	// round: solves then pay a single map probe per quality miss instead of
	// K locked probes. Merging in shard order accumulates each pair's total
	// exactly as clusterQuality would, so scores stay bitwise K-invariant.
	hist := coop.NewHistory(int(c.nextWorkerID.Load()), c.alpha, c.omega)
	for _, sh := range c.shards {
		hist.AddFrom(sh.history)
	}
	in.Quality = hist
	res.Components = len(comps)

	// Phase C: pin each component to the shard owning its lowest cell.
	pinned := make([]pinnedWork, len(c.shards))
	for _, comp := range comps {
		minCell, border := c.componentCells(in, comp)
		owner := c.geom.ShardOfCell(minCell)
		p := &pinned[owner]
		p.comps++
		if border {
			p.border++
			res.BorderComponents++
		}
		p.workers = append(p.workers, comp.Workers...)
		p.tasks = append(p.tasks, comp.Tasks...)
	}
	for s := range pinned {
		sort.Ints(pinned[s].workers)
		sort.Ints(pinned[s].tasks)
		for _, w := range pinned[s].workers {
			if workerHome[in.Workers[w].ID] != s {
				pinned[s].ghosts++
			}
		}
		res.GhostWorkers += pinned[s].ghosts
	}

	// Phase D: concurrent per-shard solves over the pinned unions.
	subs := make([]*model.SubIndex, len(c.shards))
	results := make([]*model.Assignment, len(c.shards))
	errs := make([]error, len(c.shards))
	exhausted := make([]bool, len(c.shards))
	var wg sync.WaitGroup
	for s, sh := range c.shards {
		sh.sm.compGauge.Set(float64(pinned[s].comps))
		sh.sm.border.Add(uint64(pinned[s].border))
		sh.sm.ghosts.Add(uint64(pinned[s].ghosts))
		if len(pinned[s].tasks) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, sh *Shard) {
			defer wg.Done()
			results[s], subs[s], exhausted[s], errs[s] =
				c.solveShard(ctx, sh, solverName, seed, in, pinned[s].workers, pinned[s].tasks)
		}(s, sh)
	}
	wg.Wait()
	for s := range c.shards {
		if errs[s] != nil {
			return nil, fmt.Errorf("shard %d: %w", s, errs[s])
		}
		if exhausted[s] {
			return nil, fmt.Errorf("%w: shard %d had no rung finish within %v",
				ErrBudgetExhausted, s, c.solveBudget)
		}
	}

	// Phase E: merge sub-assignments, score on the global instance (its
	// group member order and task order are K-independent), and apply the
	// per-shard deltas. A dispatched task's rating is owned by the shard of
	// its region — the workers are handed off there.
	a := model.NewAssignment(in)
	for s := range c.shards {
		if results[s] != nil {
			subs[s].Lift(results[s], a)
		}
	}
	in.Quality = coop.NewCached(in.Quality) // single-threaded from here on
	res.Upper = assign.Upper(in)

	deltas := make([]*roundDelta, len(c.shards))
	for s := range deltas {
		deltas[s] = &roundDelta{groups: make(map[int]dispatchedGroup)}
	}
	var engineRemoveW, engineRemoveT []int // instance positions leaving the engine
	for ti, ws := range a.TaskWorkers {
		if len(ws) < c.b {
			continue // below B: keep the task open and the workers available
		}
		task := in.Tasks[ti]
		owner := c.geom.ShardOf(task.Loc)
		grp := dispatchedGroup{loc: task.Loc}
		if c.inc != nil {
			engineRemoveT = append(engineRemoveT, ti)
			engineRemoveW = append(engineRemoveW, ws...)
			delete(c.taskHome, task.ID)
		}
		for _, wi := range ws {
			w := in.Workers[wi]
			grp.ids = append(grp.ids, w.ID)
			grp.workers = append(grp.workers, w)
			home := workerHome[w.ID]
			grp.homes = append(grp.homes, home)
			if c.inc != nil {
				delete(c.workerHome, w.ID)
			}
			deltas[home].removeWorkers = append(deltas[home].removeWorkers, w.ID)
			res.Pairs = append(res.Pairs, model.Pair{Worker: w.ID, Task: task.ID})
		}
		sortGroup(&grp)
		score := in.GroupQuality(ws, task.Capacity)
		res.Score += score
		deltas[owner].score += score
		deltas[owner].groups[task.ID] = grp
		deltas[owner].dispatched++
		deltas[taskHome[task.ID]].removeTasks = append(deltas[taskHome[task.ID]].removeTasks, task.ID)
		res.DispatchedTasks++
	}
	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i].Task != res.Pairs[j].Task {
			return res.Pairs[i].Task < res.Pairs[j].Task
		}
		return res.Pairs[i].Worker < res.Pairs[j].Worker
	})
	if c.inc != nil {
		c.inc.Commit(nil, engineRemoveW, engineRemoveT)
	}
	for s, sh := range c.shards {
		sh.applyRound(deltas[s])
	}
	c.cm.batches.Inc()
	c.cm.dispatched.Add(uint64(res.DispatchedTasks))
	c.cm.pairs.Add(uint64(len(res.Pairs)))
	c.cm.expired.Add(uint64(res.ExpiredTasks))
	c.cm.scoreGauge.Set(c.totalScore())
	c.cm.batchSec.Observe(now().Sub(start).Seconds())
	if c.advance != nil {
		c.advance()
	} else {
		c.rounds.Add(1)
	}
	return res, nil
}

// snapshotRound is the from-scratch round assembly: every shard drops its
// expired tasks and snapshots its registries, and the coordinator merges
// the snapshots into one instance ordered by cluster-unique ID (so
// positions, and therefore every solver tie-break, are identical for any
// K), rebuilds candidates, and decomposes the validity graph.
func (c *Cluster) snapshotRound(nowT float64, res *BatchResult) (*model.Instance, []partition.Component, map[int]int, map[int]int) {
	var workers []model.Worker
	var tasks []model.Task
	workerHome := make(map[int]int)
	taskHome := make(map[int]int)
	for si, sh := range c.shards {
		ws, ts, expired := sh.beginRound(nowT)
		for _, w := range ws {
			workerHome[w.ID] = si
		}
		for _, t := range ts {
			taskHome[t.ID] = si
		}
		workers = append(workers, ws...)
		tasks = append(tasks, ts...)
		res.ExpiredTasks += expired
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].ID < tasks[j].ID })
	in := &model.Instance{B: c.b, Now: nowT}
	in.Workers = workers
	in.Tasks = tasks
	in.BuildCandidates(model.IndexRTree)
	return in, partition.Components(in), workerHome, taskHome
}

// incrementalRound is the engine-backed round assembly: the persistent
// engine expires tasks and re-validates its maintained edges, each shard's
// queued arrivals are drained into it, and Plan assembles the same
// ID-ordered instance and components snapshotRound would have built —
// without touching the standing population. Shard registries are kept in
// step so status, routing load, and the next rounds see one truth.
func (c *Cluster) incrementalRound(nowT float64, res *BatchResult) (*model.Instance, []partition.Component, map[int]int, map[int]int) {
	for _, id := range c.inc.BeginRound(nowT) {
		c.shards[c.taskHome[id]].forgetTask(id)
		delete(c.taskHome, id)
		res.ExpiredTasks++
	}
	for si, sh := range c.shards {
		ws, ts := sh.drainPending()
		for _, w := range ws {
			c.workerHome[w.ID] = si
			c.inc.AddWorker(w)
		}
		for _, t := range ts {
			if t.Deadline <= nowT {
				// Expired while queued: the snapshot path would have
				// dropped it in this round's expiry sweep too.
				sh.forgetTask(t.ID)
				res.ExpiredTasks++
				continue
			}
			c.taskHome[t.ID] = si
			c.inc.AddTask(t)
		}
	}
	r := c.inc.Plan()
	return r.In, r.Comps, c.workerHome, c.taskHome
}

// componentCells returns the lowest cell any of the component's entities
// occupies and whether the component touches more than one shard's region.
func (c *Cluster) componentCells(in *model.Instance, comp partition.Component) (minCell int, border bool) {
	minCell = c.geom.Cells()
	first := -1
	for _, w := range comp.Workers {
		cell := c.geom.CellOf(in.Workers[w].Loc)
		if cell < minCell {
			minCell = cell
		}
		if s := c.geom.ShardOfCell(cell); first == -1 {
			first = s
		} else if s != first {
			border = true
		}
	}
	for _, t := range comp.Tasks {
		cell := c.geom.CellOf(in.Tasks[t].Loc)
		if cell < minCell {
			minCell = cell
		}
		if s := c.geom.ShardOfCell(cell); s != first {
			border = true
		}
	}
	return minCell, border
}

// solveShard solves one shard's pinned union sub-instance. The sub-instance
// preserves relative index order (SubInstance canonicalises ascending), so
// deterministic solvers produce exactly the slice of the monolithic result
// covering these components. Each shard memoizes qualities privately —
// coop.Cached is not safe for concurrent use, and shards solve in parallel.
func (c *Cluster) solveShard(ctx context.Context, sh *Shard, solverName string, seed int64, in *model.Instance, workers, tasks []int) (*model.Assignment, *model.SubIndex, bool, error) {
	t0 := now()
	sub, idx := in.SubInstance(workers, tasks)
	sub.Quality = coop.NewCached(sub.Quality)
	solver, err := assign.ByName(solverName, assign.ComponentSeed(seed, sh.id))
	if err != nil {
		return nil, nil, false, err
	}
	solver = assign.Instrument(solver, c.metrics)
	var a *model.Assignment
	if c.solveBudget > 0 {
		rungs := resilience.Chain(solver, seed)
		if c.chaos != nil {
			cc := *c.chaos
			cc.Seed = assign.ComponentSeed(cc.Seed, sh.id)
			cc.Metrics = c.metrics
			rungs = resilience.WithChaos(rungs, cc)
		}
		ladder, lerr := resilience.NewLadder(
			resilience.Config{Budget: c.solveBudget, Metrics: c.metrics}, rungs...)
		if lerr != nil {
			return nil, nil, false, lerr
		}
		var out resilience.Outcome
		a, out = ladder.SolveBudgeted(ctx, sub)
		if out.Exhausted {
			return nil, nil, true, nil
		}
	} else {
		a, err = solver.Solve(ctx, sub)
		if err != nil {
			return nil, nil, false, err
		}
	}
	sh.sm.solves.Inc()
	sh.sm.solveSec.Observe(now().Sub(t0).Seconds())
	return a, idx, false, nil
}

// sortGroup canonicalises a dispatched group's bookkeeping order (ids
// ascending with workers/homes in step), matching the unsharded platform's
// rating semantics.
func sortGroup(grp *dispatchedGroup) {
	ord := make([]int, len(grp.ids))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return grp.ids[ord[a]] < grp.ids[ord[b]] })
	ids := make([]int, len(ord))
	ws := make([]model.Worker, len(ord))
	homes := make([]int, len(ord))
	for i, o := range ord {
		ids[i] = grp.ids[o]
		ws[i] = grp.workers[o]
		homes[i] = grp.homes[o]
	}
	grp.ids, grp.workers, grp.homes = ids, ws, homes
}

// totalScore sums the per-shard cumulative scores.
func (c *Cluster) totalScore() float64 {
	var sum float64
	for _, sh := range c.shards {
		sh.mu.RLock()
		sum += sh.totalScore
		sh.mu.RUnlock()
	}
	return sum
}

// Status is a cluster snapshot.
type Status struct {
	Shards           int           `json:"shards"`
	Router           string        `json:"router"`
	AvailableWorkers int           `json:"available_workers"`
	BusyWorkers      int           `json:"busy_workers"`
	OpenTasks        int           `json:"open_tasks"`
	Batches          int           `json:"batches"`
	DispatchedTasks  int           `json:"dispatched_tasks"`
	TotalScore       float64       `json:"total_score"`
	Now              float64       `json:"now"`
	PerShard         []ShardStatus `json:"per_shard"`
}

// Status reports the cluster snapshot, including every shard's slice.
func (c *Cluster) Status() Status {
	st := Status{
		Shards: len(c.shards),
		Router: c.router.Name(),
		Now:    c.clock(),
	}
	for _, sh := range c.shards {
		ss := sh.status()
		st.AvailableWorkers += ss.AvailableWorkers
		st.BusyWorkers += ss.BusyWorkers
		st.OpenTasks += ss.OpenTasks
		st.TotalScore += ss.TotalScore
		st.DispatchedTasks += ss.DispatchedTasks
		st.PerShard = append(st.PerShard, ss)
	}
	st.Batches = int(c.rounds.Load())
	return st
}
