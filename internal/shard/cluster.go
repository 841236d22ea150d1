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
	"casc/internal/server"
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

// budgetExhausted reports a RunBatch whose Config.SolveBudget ran out
// before every shard delivered: either the request's deadline passed while
// queued for the round lock, or some shard's ladder had no rung finish in
// time. Nothing is dispatched — a partial round would break the N-vs-1
// shard equivalence. The error matches server.ErrBudgetExhausted, which the
// HTTP front end maps to 503 with a Retry-After header; the %.0w verb wraps
// the sentinel without printing it, so the text keeps this package's prefix.
func budgetExhausted(detail string) error {
	return fmt.Errorf("shard: solve budget exhausted: %s%.0w", detail, server.ErrBudgetExhausted)
}

// Config configures a Cluster.
type Config struct {
	// K is the number of spatial shards (>= 1).
	K int
	// B is the least required number of workers per task (>= 2).
	B int
	// Alpha and Omega parameterize the Equation 1 estimator (default 0.5
	// each, the paper's configuration).
	Alpha, Omega float64
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
// no read or registration ever waits on a solve. The shards share one
// cooperation history, so what the cluster learns from ratings does not
// depend on K.
type Cluster struct {
	b           int
	history     *coop.History
	solveBudget time.Duration
	geom        Geometry
	router      Policy
	admission   *TokenBucket
	shards      []*Shard
	pprof       bool

	nextWorkerID atomic.Int64
	nextTaskID   atomic.Int64
	rounds       atomic.Int64
	clock        func() float64

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
	geom, err := NewGeometry(DefaultResolution, cfg.K)
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
		history:     coop.NewHistory(0, cfg.Alpha, cfg.Omega),
		solveBudget: cfg.SolveBudget,
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
		c.shards = append(c.shards, newShard(i, reg, cfg.Incremental, cfg.Chaos))
	}
	if cfg.Incremental {
		c.inc = incremental.New(incremental.Config{B: cfg.B, OrderByID: true, Metrics: reg})
		c.workerHome = make(map[int]int)
		c.taskHome = make(map[int]int)
	}
	if c.clock == nil {
		c.clock = func() float64 { return float64(c.rounds.Load()) }
	}
	c.cm.shardsGauge.Set(float64(cfg.K))
	return c, nil
}

// Now returns the cluster's current platform time.
func (c *Cluster) Now() float64 { return c.clock() }

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
	// Grow before routing: once the worker is in a shard registry a
	// concurrent RunBatch may snapshot it, and its quality view must
	// already cover the ID.
	c.history.Grow(id + 1)
	c.shards[c.route(loc)].addWorker(model.Worker{
		ID: id, Loc: loc, Speed: speed, Radius: radius, Arrive: c.clock(),
	}, true)
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
	now := c.clock()
	if deadline <= now {
		return 0, fmt.Errorf("shard: deadline %v not in the future (now %v)", deadline, now)
	}
	id := int(c.nextTaskID.Add(1) - 1)
	c.shards[c.route(loc)].addTask(model.Task{
		ID: id, Loc: loc, Capacity: capacity, Created: now, Deadline: deadline,
	})
	return id, nil
}

// Quality returns the current Equation 1 estimate for two workers from the
// cluster's one cooperation history.
func (c *Cluster) Quality(i, k int) (float64, error) {
	n := int(c.nextWorkerID.Load())
	if i == k || i < 0 || k < 0 || i >= n || k >= n {
		return 0, fmt.Errorf("shard: bad worker pair (%d,%d)", i, k)
	}
	return c.history.Quality(i, k), nil
}

// RateTask records the requester's rating s in [0,1] for a dispatched task.
// The shard that owns the task's region releases the group; the rating goes
// into the cluster's history, and only then do the group's workers rejoin
// the pool at the task's location, re-homed by the router — the
// rating-side half of the ghost/handoff protocol. Recording before the
// workers return keeps every rated pair out of any round's snapshot.
func (c *Cluster) RateTask(taskID int, score float64) error {
	if math.IsNaN(score) || score < 0 || score > 1 {
		return fmt.Errorf("shard: rating %v outside [0,1]", score)
	}
	for _, sh := range c.shards {
		g, err := sh.reg.TakeRated(taskID)
		if errors.Is(err, server.ErrNotDispatched) {
			continue
		}
		if err != nil {
			return fmt.Errorf("shard: task %d %w", taskID, err)
		}
		c.history.RecordGroup(g.IDs(), score)
		homes, _ := sh.homes.LoadAndDelete(taskID)
		for i, w := range g.Workers {
			w.Loc, w.Arrive = g.Loc, c.clock()
			home := c.route(w.Loc)
			c.shards[home].addWorker(w, false)
			if home != homes.([]int)[i] {
				c.shards[home].sm.handoffs.Inc()
			}
		}
		return nil
	}
	return fmt.Errorf("shard: task %d %w", taskID, server.ErrNotDispatched)
}

// BatchResult reports one cluster RunBatch round: the platform's batch
// result plus the round's sharding observability.
type BatchResult struct {
	server.BatchResult
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
// server.ErrBudgetExhausted and dispatches nothing, keeping rounds
// all-or-nothing.
func (c *Cluster) RunBatch(ctx context.Context, solverName string) (*BatchResult, error) {
	if _, err := assign.ByName(solverName, 0); err != nil {
		return nil, err
	}
	c.batchMu.Lock()
	defer c.batchMu.Unlock()
	if ctx.Err() != nil {
		return nil, budgetExhausted("deadline passed while queued")
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
	// The solve reads the live history: a rating writes only pairs of a
	// dispatched group, whose workers are in no shard registry from
	// dispatch until RateTask has recorded it, so no pair of this round's
	// instance changes while the round runs.
	ids := make([]int, len(in.Workers))
	for i, w := range in.Workers {
		ids[i] = w.ID
	}
	in.Quality = coop.NewSubset(c.history, ids)
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
			return nil, budgetExhausted(fmt.Sprintf("shard %d had no rung finish within %v", s, c.solveBudget))
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
	in.Quality = coop.NewCachedFor(in.Quality, in.CoCandidatePairs()) // single-threaded from here on
	res.Upper = assign.Upper(in)

	// Tasks and groups come in ascending ID order, so the pairs are sorted
	// by task, then worker.
	deltas := make([]server.RoundDelta, len(c.shards))
	var engineRemoveW, engineRemoveT []int // instance positions leaving the engine
	for ti, ws := range a.TaskWorkers {
		if len(ws) < c.b {
			continue // below B: keep the task open and the workers available
		}
		g := server.NewGroup(in, ti, ws)
		owner := c.geom.ShardOf(g.Loc)
		homes := make([]int, len(g.Workers))
		for i, w := range g.Workers {
			home := workerHome[w.ID]
			homes[i] = home
			deltas[home].RemoveWorkers = append(deltas[home].RemoveWorkers, w.ID)
			res.Pairs = append(res.Pairs, model.Pair{Worker: w.ID, Task: g.Task})
		}
		home := taskHome[g.Task]
		deltas[home].RemoveTasks = append(deltas[home].RemoveTasks, g.Task)
		if c.inc != nil {
			// After the lookups above: under incremental rounds taskHome
			// and workerHome are these maps.
			engineRemoveT = append(engineRemoveT, ti)
			engineRemoveW = append(engineRemoveW, ws...)
			delete(c.taskHome, g.Task)
			for _, w := range g.Workers {
				delete(c.workerHome, w.ID)
			}
		}
		score := in.GroupQuality(ws, in.Tasks[ti].Capacity)
		res.Score += score
		deltas[owner].Score += score
		deltas[owner].Groups = append(deltas[owner].Groups, g)
		// Stored before the commit makes the group ratable.
		c.shards[owner].homes.Store(g.Task, homes)
		res.DispatchedTasks++
	}
	if c.inc != nil {
		c.inc.Commit(nil, engineRemoveW, engineRemoveT)
	}
	for s, sh := range c.shards {
		sh.reg.ApplyRound(&deltas[s])
	}
	c.cm.batches.Inc()
	c.cm.dispatched.Add(uint64(res.DispatchedTasks))
	c.cm.pairs.Add(uint64(len(res.Pairs)))
	c.cm.expired.Add(uint64(res.ExpiredTasks))
	c.cm.scoreGauge.Set(c.Status().TotalScore)
	c.cm.batchSec.Observe(now().Sub(start).Seconds())
	c.rounds.Add(1)
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
		ws, ts, expired := sh.reg.BeginRound(nowT)
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
	in.BuildCandidates(model.IndexGrid)
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
		c.shards[c.taskHome[id]].reg.RemoveTask(id)
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
				sh.reg.RemoveTask(t.ID)
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
// covering these components. The solve memoizes qualities in a memo of
// the shard's own (server.NewSolver) — coop.Cached is not safe for
// concurrent use, and shards solve in parallel. For the same reason the
// shard reads the history through a Subset of its own, over its workers'
// IDs: a Subset's QualityBlock reuses one scratch slice.
func (c *Cluster) solveShard(ctx context.Context, sh *Shard, solverName string, seed int64, in *model.Instance, workers, tasks []int) (*model.Assignment, *model.SubIndex, bool, error) {
	t0 := now()
	sub, idx := in.SubInstance(workers, tasks)
	ids := make([]int, len(sub.Workers))
	for i, w := range sub.Workers {
		ids[i] = w.ID
	}
	sub.Quality = coop.NewSubset(c.history, ids)
	solve, err := server.NewSolver(solverName, assign.ComponentSeed(seed, sh.id), seed, c.solveBudget, sh.chaos, c.metrics)
	if err != nil {
		return nil, nil, false, err
	}
	a, exhausted, err := solve(ctx, sub)
	if err != nil || exhausted {
		return nil, nil, exhausted, err
	}
	sh.sm.solves.Inc()
	sh.sm.solveSec.Observe(now().Sub(t0).Seconds())
	return a, idx, false, nil
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
		ss := ShardStatus{Shard: sh.id, RegistryStatus: sh.reg.Status()}
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
