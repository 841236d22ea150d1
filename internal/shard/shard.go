package shard

import (
	"sort"
	"strconv"
	"sync"

	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/model"
)

// Per-shard metric names. Every series carries a shard="<id>" label, so one
// shared registry namespaces all K shards on a single GET /metrics page.
const (
	MetricShardWorkers          = "casc_shard_available_workers"
	MetricShardBusyWorkers      = "casc_shard_busy_workers"
	MetricShardOpenTasks        = "casc_shard_open_tasks"
	MetricShardScore            = "casc_shard_total_score"
	MetricShardRegistered       = "casc_shard_workers_registered_total"
	MetricShardPosted           = "casc_shard_tasks_posted_total"
	MetricShardRatings          = "casc_shard_ratings_total"
	MetricShardSolves           = "casc_shard_solves_total"
	MetricShardSolveSeconds     = "casc_shard_solve_seconds"
	MetricShardComponents       = "casc_shard_components"
	MetricShardBorderComponents = "casc_shard_border_components_total"
	MetricShardGhostWorkers     = "casc_shard_ghost_workers_total"
	MetricShardHandoffs         = "casc_shard_handoffs_total"
)

// Shard is one spatial shard: a registry of available workers, open tasks
// and the dispatched groups awaiting ratings whose tasks lie in its region.
// The cooperation history is the cluster's, shared by every shard. All
// methods are safe for concurrent use; batch rounds snapshot under the lock
// and solve outside it, so reads and registrations never wait on a solve.
type Shard struct {
	id int

	mu         sync.RWMutex
	workers    map[int]model.Worker
	tasks      map[int]model.Task
	dispatched map[int]dispatchedGroup
	rated      map[int]bool
	busyCount  int
	dispCount  int
	totalScore float64

	// trackPending, set once at cluster construction under incremental
	// rounds, makes addWorker/addTask also queue arrivals for the next
	// round's engine drain.
	trackPending bool
	pendingW     []model.Worker
	pendingT     []model.Task

	sm shardMetrics
}

// dispatchedGroup snapshots a dispatched task's worker group together with
// each member's home shard at dispatch time, so a later rating can rejoin
// the workers and count cross-shard handoffs.
type dispatchedGroup struct {
	ids     []int
	workers []model.Worker
	homes   []int
	loc     geo.Point
}

// shardMetrics holds the shard's resolved metric handles.
type shardMetrics struct {
	availGauge *metrics.Gauge
	busyGauge  *metrics.Gauge
	openGauge  *metrics.Gauge
	scoreGauge *metrics.Gauge
	registered *metrics.Counter
	posted     *metrics.Counter
	ratings    *metrics.Counter
	solves     *metrics.Counter
	solveSec   *metrics.Histogram
	compGauge  *metrics.Gauge
	border     *metrics.Counter
	ghosts     *metrics.Counter
	handoffs   *metrics.Counter
}

// newShard returns an empty shard with metric series labelled shard="<id>"
// on reg.
func newShard(id int, reg *metrics.Registry) *Shard {
	lbl := metrics.L("shard", strconv.Itoa(id))
	return &Shard{
		id:         id,
		workers:    make(map[int]model.Worker),
		tasks:      make(map[int]model.Task),
		dispatched: make(map[int]dispatchedGroup),
		rated:      make(map[int]bool),
		sm: shardMetrics{
			availGauge: reg.Gauge(MetricShardWorkers, "Workers currently available, by shard.", lbl),
			busyGauge:  reg.Gauge(MetricShardBusyWorkers, "Workers on dispatched, unrated tasks, by shard.", lbl),
			openGauge:  reg.Gauge(MetricShardOpenTasks, "Tasks currently open, by shard.", lbl),
			scoreGauge: reg.Gauge(MetricShardScore, "Cumulative cooperation score dispatched, by shard.", lbl),
			registered: reg.Counter(MetricShardRegistered, "Workers ever registered, by shard.", lbl),
			posted:     reg.Counter(MetricShardPosted, "Tasks ever posted, by shard.", lbl),
			ratings:    reg.Counter(MetricShardRatings, "Requester ratings of tasks dispatched from this shard, by shard.", lbl),
			solves:     reg.Counter(MetricShardSolves, "Batch rounds this shard solved pinned work in.", lbl),
			solveSec: reg.Histogram(MetricShardSolveSeconds, "Per-round solve latency of this shard's pinned region.",
				metrics.LatencyBuckets(), lbl),
			compGauge: reg.Gauge(MetricShardComponents, "Components pinned to this shard in the last round.", lbl),
			border:    reg.Counter(MetricShardBorderComponents, "Boundary-crossing components pinned to this shard.", lbl),
			ghosts:    reg.Counter(MetricShardGhostWorkers, "Workers solved here while homed on another shard.", lbl),
			handoffs:  reg.Counter(MetricShardHandoffs, "Workers re-homed to a different shard after a rating.", lbl),
		},
	}
}

// syncGauges refreshes the state gauges. Callers must hold s.mu.
func (s *Shard) syncGauges() {
	s.sm.availGauge.Set(float64(len(s.workers)))
	s.sm.busyGauge.Set(float64(s.busyCount))
	s.sm.openGauge.Set(float64(len(s.tasks)))
	s.sm.scoreGauge.Set(s.totalScore)
}

// addWorker stores an available worker.
func (s *Shard) addWorker(w model.Worker) {
	s.mu.Lock()
	s.workers[w.ID] = w
	if s.trackPending {
		s.pendingW = append(s.pendingW, w)
	}
	s.sm.registered.Inc()
	s.syncGauges()
	s.mu.Unlock()
}

// addTask stores an open task.
func (s *Shard) addTask(t model.Task) {
	s.mu.Lock()
	s.tasks[t.ID] = t
	if s.trackPending {
		s.pendingT = append(s.pendingT, t)
	}
	s.sm.posted.Inc()
	s.syncGauges()
	s.mu.Unlock()
}

// drainPending hands the arrivals queued since the previous drain to the
// caller (the incremental round coordinator) and resets the queues.
func (s *Shard) drainPending() (ws []model.Worker, ts []model.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws, ts = s.pendingW, s.pendingT
	s.pendingW, s.pendingT = nil, nil
	return ws, ts
}

// forgetTask drops an open task that the incremental engine expired, keeping
// the shard registry in step with the engine's population.
func (s *Shard) forgetTask(id int) {
	s.mu.Lock()
	delete(s.tasks, id)
	s.syncGauges()
	s.mu.Unlock()
}

// load returns the shard's registered-entity count, the least-loaded
// router's signal.
func (s *Shard) load() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.workers) + len(s.tasks)
}

// beginRound drops expired tasks and snapshots the shard's available
// workers and open tasks sorted ascending by ID. The snapshot is what the
// round's coordinator merges into the global instance; registrations
// landing after it join the next round.
func (s *Shard) beginRound(nowT float64) (ws []model.Worker, ts []model.Task, expired int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, t := range s.tasks {
		if t.Deadline <= nowT {
			delete(s.tasks, id)
			expired++
		}
	}
	ws = make([]model.Worker, 0, len(s.workers))
	for _, w := range s.workers {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	ts = make([]model.Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	s.syncGauges()
	return ws, ts, expired
}

// roundDelta is the mutation a batch round applies to one shard: workers
// leaving the pool (dispatched from their home here), tasks leaving the
// open set, and dispatched groups this shard now owns the ratings for.
type roundDelta struct {
	removeWorkers []int
	removeTasks   []int
	groups        map[int]dispatchedGroup // by task ID
	dispatched    int
	score         float64
}

// applyRound commits a round's delta under one lock acquisition.
func (s *Shard) applyRound(d *roundDelta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range d.removeWorkers {
		delete(s.workers, id)
	}
	for _, id := range d.removeTasks {
		delete(s.tasks, id)
	}
	for taskID, grp := range d.groups {
		s.dispatched[taskID] = grp
		s.busyCount += len(grp.ids)
	}
	s.dispCount += d.dispatched
	s.totalScore += d.score
	s.syncGauges()
}

// takeRated claims the dispatched group of taskID for rating, returning
// ok=false when this shard does not own the task or it was already rated.
// The rating itself is recorded by the caller (cluster), which also
// re-homes the group's workers.
func (s *Shard) takeRated(taskID int) (dispatchedGroup, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	grp, ok := s.dispatched[taskID]
	if !ok || s.rated[taskID] {
		return dispatchedGroup{}, false
	}
	s.rated[taskID] = true
	s.busyCount -= len(grp.ids)
	s.sm.ratings.Inc()
	s.syncGauges()
	return grp, true
}

// hasDispatched reports whether this shard owns taskID's dispatched group
// (rated or not).
func (s *Shard) hasDispatched(taskID int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.dispatched[taskID]
	return ok
}

// ShardStatus is one shard's slice of the cluster status.
type ShardStatus struct {
	Shard            int     `json:"shard"`
	AvailableWorkers int     `json:"available_workers"`
	BusyWorkers      int     `json:"busy_workers"`
	OpenTasks        int     `json:"open_tasks"`
	DispatchedTasks  int     `json:"dispatched_tasks"`
	TotalScore       float64 `json:"total_score"`
}

// status snapshots the shard.
func (s *Shard) status() ShardStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ShardStatus{
		Shard:            s.id,
		AvailableWorkers: len(s.workers),
		BusyWorkers:      s.busyCount,
		OpenTasks:        len(s.tasks),
		DispatchedTasks:  s.dispCount,
		TotalScore:       s.totalScore,
	}
}
