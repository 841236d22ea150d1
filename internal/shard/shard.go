package shard

import (
	"strconv"
	"sync"

	"casc/internal/assign"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
	"casc/internal/server"
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

// Shard is one spatial shard: a server.Registry of the available workers,
// open tasks and dispatched groups homed in its region, plus the series of
// the round work pinned to it. The cooperation history is the cluster's,
// shared by every shard.
type Shard struct {
	id  int
	reg *server.Registry
	// chaos is the cluster's fault-injection config with this shard's
	// seed; nil without Config.Chaos.
	chaos *resilience.ChaosConfig
	sm    shardMetrics

	// homes holds, by task ID, the home shards of the members of each
	// group this shard dispatched ([]int in member order), until its rating.
	homes sync.Map

	// mu guards the arrivals queued for the incremental engine; queue is
	// set only under incremental rounds.
	mu       sync.Mutex
	queue    bool
	pendingW []model.Worker
	pendingT []model.Task
}

// shardMetrics holds the shard's round metric handles; the state series
// belong to its registry.
type shardMetrics struct {
	solves    *metrics.Counter
	solveSec  *metrics.Histogram
	compGauge *metrics.Gauge
	border    *metrics.Counter
	ghosts    *metrics.Counter
	handoffs  *metrics.Counter
}

// newShard returns an empty shard with metric series labelled shard="<id>"
// on reg. With queue set it queues arrivals for the incremental engine.
func newShard(id int, reg *metrics.Registry, queue bool, chaos *resilience.ChaosConfig) *Shard {
	lbl := metrics.L("shard", strconv.Itoa(id))
	sh := &Shard{
		id: id,
		reg: server.NewRegistry(server.RegistryMetrics{
			Available:  reg.Gauge(MetricShardWorkers, "Workers currently available, by shard.", lbl),
			Busy:       reg.Gauge(MetricShardBusyWorkers, "Workers on dispatched, unrated tasks, by shard.", lbl),
			Open:       reg.Gauge(MetricShardOpenTasks, "Tasks currently open, by shard.", lbl),
			Score:      reg.Gauge(MetricShardScore, "Cumulative cooperation score dispatched, by shard.", lbl),
			Registered: reg.Counter(MetricShardRegistered, "Workers ever registered, by shard.", lbl),
			Posted:     reg.Counter(MetricShardPosted, "Tasks ever posted, by shard.", lbl),
			Ratings:    reg.Counter(MetricShardRatings, "Requester ratings of tasks dispatched from this shard, by shard.", lbl),
		}),
		sm: shardMetrics{
			solves: reg.Counter(MetricShardSolves, "Batch rounds this shard solved pinned work in.", lbl),
			solveSec: reg.Histogram(MetricShardSolveSeconds, "Per-round solve latency of this shard's pinned region.",
				metrics.LatencyBuckets(), lbl),
			compGauge: reg.Gauge(MetricShardComponents, "Components pinned to this shard in the last round.", lbl),
			border:    reg.Counter(MetricShardBorderComponents, "Boundary-crossing components pinned to this shard.", lbl),
			ghosts:    reg.Counter(MetricShardGhostWorkers, "Workers solved here while homed on another shard.", lbl),
			handoffs:  reg.Counter(MetricShardHandoffs, "Workers re-homed to a different shard after a rating.", lbl),
		},
		queue: queue,
	}
	if chaos != nil {
		cc := *chaos
		cc.Seed = assign.ComponentSeed(cc.Seed, id)
		cc.Metrics = reg
		sh.chaos = &cc
	}
	return sh
}

// addWorker stores a worker in the registry, as a registration when fresh
// or back from a rated task otherwise, and queues it for the engine.
func (s *Shard) addWorker(w model.Worker, fresh bool) {
	if fresh {
		s.reg.AddWorker(w)
	} else {
		s.reg.PutWorker(w)
	}
	if s.queue {
		s.mu.Lock()
		s.pendingW = append(s.pendingW, w)
		s.mu.Unlock()
	}
}

// addTask stores a newly posted task and queues it for the engine.
func (s *Shard) addTask(t model.Task) {
	s.reg.AddTask(t)
	if s.queue {
		s.mu.Lock()
		s.pendingT = append(s.pendingT, t)
		s.mu.Unlock()
	}
}

// drainPending hands over the arrivals queued since the previous drain.
// Each is in the registry before it is queued, so a round that drains it
// commits against a registry that holds it.
func (s *Shard) drainPending() (ws []model.Worker, ts []model.Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws, ts = s.pendingW, s.pendingT
	s.pendingW, s.pendingT = nil, nil
	return ws, ts
}

// load returns the shard's registered-entity count, the least-loaded
// router's signal.
func (s *Shard) load() int {
	st := s.reg.Status()
	return st.AvailableWorkers + st.OpenTasks
}

// ShardStatus is one shard's slice of the cluster status.
type ShardStatus struct {
	Shard int `json:"shard"`
	server.RegistryStatus
}
