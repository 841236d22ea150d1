package server

import (
	"errors"
	"sort"
	"sync"

	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/model"
)

// Registry is a serving tier's live state: the available workers, the
// open tasks and the dispatched groups awaiting their ratings. The platform
// holds one; the sharded cluster holds one per shard. A batch round takes
// the registry lock only in BeginRound, which expires tasks and snapshots
// the rest, and in ApplyRound, which commits the dispatch. All methods are
// safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	workers    map[int]model.Worker
	tasks      map[int]model.Task
	dispatched map[int]Group // unrated groups by task ID
	rated      map[int]bool  // every task ID ever rated
	busy       int           // workers in unrated groups
	done       int           // tasks ever dispatched
	score      float64       // cumulative score of the dispatched groups

	m RegistryMetrics
}

// RegistryMetrics holds a registry's seven state series: the platform's
// casc_platform_* ones, or a shard's casc_shard_*{shard}.
type RegistryMetrics struct {
	Available, Busy, Open, Score *metrics.Gauge
	Registered, Posted, Ratings  *metrics.Counter
}

// Group is one dispatched task's worker group, kept until the task is
// rated; then its members rejoin the pool at the task's location.
type Group struct {
	Task    int
	Loc     geo.Point
	Workers []model.Worker // ascending by ID
}

// NewGroup returns the group instance task ti dispatches to the workers
// at positions ws, its members ordered by ID.
func NewGroup(in *model.Instance, ti int, ws []int) Group {
	g := Group{Task: in.Tasks[ti].ID, Loc: in.Tasks[ti].Loc, Workers: make([]model.Worker, len(ws))}
	for i, wi := range ws {
		g.Workers[i] = in.Workers[wi]
	}
	sort.Slice(g.Workers, func(a, b int) bool { return g.Workers[a].ID < g.Workers[b].ID })
	return g
}

// IDs returns the members' worker IDs, ascending.
func (g Group) IDs() []int {
	ids := make([]int, len(g.Workers))
	for i, w := range g.Workers {
		ids[i] = w.ID
	}
	return ids
}

// NewRegistry returns an empty registry with state series m.
func NewRegistry(m RegistryMetrics) *Registry {
	return &Registry{
		workers:    make(map[int]model.Worker),
		tasks:      make(map[int]model.Task),
		dispatched: make(map[int]Group),
		rated:      make(map[int]bool),
		m:          m,
	}
}

// sync refreshes the state gauges. Callers hold r.mu.
func (r *Registry) sync() {
	r.m.Available.Set(float64(len(r.workers)))
	r.m.Busy.Set(float64(r.busy))
	r.m.Open.Set(float64(len(r.tasks)))
	r.m.Score.Set(r.score)
}

// AddWorker stores a newly registered worker.
func (r *Registry) AddWorker(w model.Worker) {
	r.PutWorker(w)
	r.m.Registered.Inc()
}

// PutWorker stores a worker registered before: one back from a rated task,
// or an available one updated. It counts no registration.
func (r *Registry) PutWorker(w model.Worker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers[w.ID] = w
	r.sync()
}

// AddTask stores a newly posted task.
func (r *Registry) AddTask(t model.Task) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tasks[t.ID] = t
	r.m.Posted.Inc()
	r.sync()
}

// Worker returns available worker id.
func (r *Registry) Worker(id int) (model.Worker, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w, ok := r.workers[id]
	return w, ok
}

// RemoveWorker drops available worker id, reporting whether it was there.
func (r *Registry) RemoveWorker(id int) bool { return remove(r, r.workers, id) }

// RemoveTask drops open task id, reporting whether it was there.
func (r *Registry) RemoveTask(id int) bool { return remove(r, r.tasks, id) }

func remove[V any](r *Registry, m map[int]V, id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := m[id]
	delete(m, id)
	r.sync()
	return ok
}

// Workers returns the available workers, ascending by ID.
func (r *Registry) Workers() []model.Worker { return lockedSorted(&r.mu, r.workers) }

// Tasks returns the open tasks, ascending by ID.
func (r *Registry) Tasks() []model.Task { return lockedSorted(&r.mu, r.tasks) }

// Groups returns the dispatched, unrated groups, ascending by task ID.
func (r *Registry) Groups() []Group { return lockedSorted(&r.mu, r.dispatched) }

// lockedSorted is sortedByKey under mu's read lock.
func lockedSorted[V any](mu *sync.RWMutex, m map[int]V) []V {
	mu.RLock()
	defer mu.RUnlock()
	return sortedByKey(m)
}

// sortedByKey copies m's values, ascending by key.
func sortedByKey[V any](m map[int]V) []V {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]V, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// BeginRound drops the open tasks whose deadline is at or before now and
// returns the rest with the available workers, ascending by ID: the state
// a round solves, taken in one lock acquisition. Workers and tasks added
// after it join the next round.
func (r *Registry) BeginRound(now float64) (ws []model.Worker, ts []model.Task, expired int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, t := range r.tasks {
		if t.Deadline <= now {
			delete(r.tasks, id)
			expired++
		}
	}
	r.sync()
	return sortedByKey(r.workers), sortedByKey(r.tasks), expired
}

// RoundDelta is what one round commits to a registry: the dispatched
// workers and tasks leaving it, and the groups (with their summed score)
// whose ratings it now owns.
type RoundDelta struct {
	RemoveWorkers []int
	RemoveTasks   []int
	Groups        []Group
	Score         float64
}

// ApplyRound commits a round's delta under one lock acquisition.
func (r *Registry) ApplyRound(d *RoundDelta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range d.RemoveWorkers {
		delete(r.workers, id)
	}
	for _, id := range d.RemoveTasks {
		delete(r.tasks, id)
	}
	for _, g := range d.Groups {
		r.dispatched[g.Task] = g
		r.busy += len(g.Workers)
	}
	r.done += len(d.Groups)
	r.score += d.Score
	r.sync()
}

// Errors of TakeRated, worded to follow "task <id>".
var (
	ErrNotDispatched = errors.New("was not dispatched")
	errRated         = errors.New("already rated")
)

// TakeRated claims taskID's group for its one rating and forgets it,
// keeping only the task ID so that a second rating fails as already rated.
// The caller records the rating and returns the workers.
func (r *Registry) TakeRated(taskID int) (Group, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.dispatched[taskID]
	if !ok {
		if r.rated[taskID] {
			return Group{}, errRated
		}
		return Group{}, ErrNotDispatched
	}
	delete(r.dispatched, taskID)
	r.rated[taskID] = true
	r.busy -= len(g.Workers)
	r.m.Ratings.Inc()
	r.sync()
	return g, nil
}

// RegistryStatus is a registry's counts.
type RegistryStatus struct {
	AvailableWorkers int     `json:"available_workers"`
	BusyWorkers      int     `json:"busy_workers"`
	OpenTasks        int     `json:"open_tasks"`
	DispatchedTasks  int     `json:"dispatched_tasks"`
	TotalScore       float64 `json:"total_score"`
}

// Status reports the registry's counts.
func (r *Registry) Status() RegistryStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return RegistryStatus{
		AvailableWorkers: len(r.workers),
		BusyWorkers:      r.busy,
		OpenTasks:        len(r.tasks),
		DispatchedTasks:  r.done,
		TotalScore:       r.score,
	}
}
