package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"

	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/model"
)

// This file adds the platform operations a production deployment needs
// beyond the core register/post/assign/rate loop: worker location updates
// and deregistration, task cancellation, and state snapshots (the rating
// history is the platform's most valuable asset; losing it resets every
// quality estimate to the prior).

// UpdateWorker moves an available worker to a new location and optionally
// changes its speed/radius (pass negative values to keep the current ones).
// Busy workers (dispatched, not yet rated) cannot be updated, and an
// update that fails model.CheckWorkerInput leaves the worker unchanged.
func (p *Platform) UpdateWorker(id int, loc geo.Point, speed, radius float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.registry.Worker(id)
	if !ok {
		return fmt.Errorf("server: worker %d not available (unknown or busy)", id)
	}
	w.Loc = loc
	if speed >= 0 {
		w.Speed = speed
	}
	if radius >= 0 {
		w.Radius = radius
	}
	if err := model.CheckWorkerInput(w.Loc, w.Speed, w.Radius); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	w.Arrive = p.clock()
	p.registry.PutWorker(w)
	return nil
}

// UnregisterWorker removes an available worker from the pool. Busy workers
// cannot leave until their task is rated.
func (p *Platform) UnregisterWorker(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.registry.RemoveWorker(id) {
		return fmt.Errorf("server: worker %d not available (unknown or busy)", id)
	}
	return nil
}

// CancelTask withdraws an open (not yet dispatched) task.
func (p *Platform) CancelTask(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.registry.RemoveTask(id) {
		return fmt.Errorf("server: task %d not open", id)
	}
	return nil
}

// Snapshot is the serializable platform state. Dispatched-but-unrated
// groups are included so pending ratings survive a restart.
type Snapshot struct {
	B            int               `json:"b"`
	NextWorkerID int               `json:"next_worker_id"`
	NextTaskID   int               `json:"next_task_id"`
	Now          float64           `json:"now"`
	Workers      []SnapshotWorker  `json:"workers"`
	Tasks        []SnapshotTask    `json:"tasks"`
	History      []coop.PairRecord `json:"history"`
	Dispatched   []SnapshotGroup   `json:"dispatched"`
	TotalScore   float64           `json:"total_score"`
	Batches      int               `json:"batches"`
	DoneTasks    int               `json:"done_tasks"`
}

// SnapshotWorker is one available worker.
type SnapshotWorker struct {
	ID     int     `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Speed  float64 `json:"speed"`
	Radius float64 `json:"radius"`
	Arrive float64 `json:"arrive"`
}

func snapshotWorker(w model.Worker) SnapshotWorker {
	return SnapshotWorker{ID: w.ID, X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive}
}

func (w SnapshotWorker) worker() model.Worker {
	return model.Worker{ID: w.ID, Loc: geo.Pt(w.X, w.Y), Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive}
}

// SnapshotTask is one open task.
type SnapshotTask struct {
	ID       int     `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Capacity int     `json:"capacity"`
	Created  float64 `json:"created"`
	Deadline float64 `json:"deadline"`
}

func snapshotTask(t model.Task) SnapshotTask {
	return SnapshotTask{ID: t.ID, X: t.Loc.X, Y: t.Loc.Y, Capacity: t.Capacity, Created: t.Created, Deadline: t.Deadline}
}

func (t SnapshotTask) task() model.Task {
	return model.Task{ID: t.ID, Loc: geo.Pt(t.X, t.Y), Capacity: t.Capacity, Created: t.Created, Deadline: t.Deadline}
}

// SnapshotGroup is one dispatched, unrated task group.
type SnapshotGroup struct {
	TaskID  int              `json:"task_id"`
	X       float64          `json:"x"`
	Y       float64          `json:"y"`
	Workers []SnapshotWorker `json:"workers"`
}

// Snapshot captures the platform state.
func (p *Platform) Snapshot() *Snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := p.registry.Status()
	s := &Snapshot{
		B:            p.b,
		NextWorkerID: p.nextWorkerID,
		NextTaskID:   p.nextTaskID,
		Now:          p.clock(),
		History:      p.history.Export(),
		TotalScore:   st.TotalScore,
		Batches:      p.batches,
		DoneTasks:    st.DispatchedTasks,
	}
	for _, w := range p.registry.Workers() {
		s.Workers = append(s.Workers, snapshotWorker(w))
	}
	for _, t := range p.registry.Tasks() {
		s.Tasks = append(s.Tasks, snapshotTask(t))
	}
	for _, g := range p.registry.Groups() {
		sg := SnapshotGroup{TaskID: g.Task, X: g.Loc.X, Y: g.Loc.Y}
		for _, w := range g.Workers {
			sg.Workers = append(sg.Workers, snapshotWorker(w))
		}
		s.Dispatched = append(s.Dispatched, sg)
	}
	return s
}

// Restore builds a platform from a snapshot. The restored platform uses
// the default batch-counter clock starting at the snapshot time unless
// cfg.Clock is provided.
func Restore(s *Snapshot, cfg Config) (*Platform, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	cfg.B = s.B
	p, err := NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		p.startClock(s.Now)
	}
	p.nextWorkerID = s.NextWorkerID
	p.nextTaskID = s.NextTaskID
	p.batches = s.Batches
	p.history.Grow(s.NextWorkerID)
	if err := p.history.Import(s.History); err != nil {
		return nil, err
	}
	p.registry.restore(s)
	return p, nil
}

// restore fills an empty registry with a snapshot's workers, tasks, groups
// and totals. It counts no registration or post.
func (r *Registry) restore(s *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range s.Workers {
		r.workers[w.ID] = w.worker()
	}
	for _, t := range s.Tasks {
		r.tasks[t.ID] = t.task()
	}
	for _, sg := range s.Dispatched {
		g := Group{Task: sg.TaskID, Loc: geo.Pt(sg.X, sg.Y)}
		for _, w := range sg.Workers {
			g.Workers = append(g.Workers, w.worker())
		}
		sort.Slice(g.Workers, func(a, b int) bool { return g.Workers[a].ID < g.Workers[b].ID })
		r.dispatched[g.Task] = g
		r.busy += len(g.Workers)
	}
	r.done, r.score = s.DoneTasks, s.TotalScore
	r.sync()
}

// check rejects a snapshot the live API could never have produced: every
// worker and task must pass the input checks of RegisterWorker and
// PostTask, every open task's capacity must reach B, and each worker or
// task ID must lie in its allocated range and appear once across Workers,
// Tasks and Dispatched.
func (s *Snapshot) check() error {
	if s.B < 2 {
		return fmt.Errorf("server: snapshot B = %d", s.B)
	}
	for _, r := range s.History {
		if r.I >= s.NextWorkerID || r.K >= s.NextWorkerID {
			return fmt.Errorf("server: snapshot history pair (%d,%d) out of worker ID range", r.I, r.K)
		}
	}
	workers := make(map[int]bool)
	checkWorker := func(w SnapshotWorker) error {
		switch {
		case w.ID < 0 || w.ID >= s.NextWorkerID:
			return fmt.Errorf("server: snapshot worker %d out of ID range", w.ID)
		case workers[w.ID]:
			return fmt.Errorf("server: snapshot worker %d listed twice", w.ID)
		}
		workers[w.ID] = true
		if err := model.CheckWorkerInput(geo.Pt(w.X, w.Y), w.Speed, w.Radius); err != nil {
			return fmt.Errorf("server: snapshot worker %d: %w", w.ID, err)
		}
		return nil
	}
	tasks := make(map[int]bool)
	checkTask := func(id int, loc geo.Point, deadline float64) error {
		switch {
		case id < 0 || id >= s.NextTaskID:
			return fmt.Errorf("server: snapshot task %d out of ID range", id)
		case tasks[id]:
			return fmt.Errorf("server: snapshot task %d listed twice", id)
		}
		tasks[id] = true
		if err := model.CheckTaskInput(loc, deadline); err != nil {
			return fmt.Errorf("server: snapshot task %d: %w", id, err)
		}
		return nil
	}
	for _, w := range s.Workers {
		if err := checkWorker(w); err != nil {
			return err
		}
	}
	for _, t := range s.Tasks {
		if err := checkTask(t.ID, geo.Pt(t.X, t.Y), t.Deadline); err != nil {
			return err
		}
		if t.Capacity < s.B {
			return fmt.Errorf("server: snapshot task %d capacity %d below B=%d", t.ID, t.Capacity, s.B)
		}
	}
	for _, g := range s.Dispatched {
		// A dispatched group sits at its task's location; the deadline no
		// longer matters once the task is dispatched.
		if err := checkTask(g.TaskID, geo.Pt(g.X, g.Y), 0); err != nil {
			return err
		}
		for _, w := range g.Workers {
			if err := checkWorker(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveSnapshot writes the snapshot as JSON.
func (s *Snapshot) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// SaveFile writes the snapshot to a file.
func (s *Snapshot) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadSnapshot reads a snapshot from JSON.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("server: decode snapshot: %w", err)
	}
	return &s, nil
}

// LoadSnapshotFile reads a snapshot from a file.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f)
}

// ListWorkers returns the available workers sorted by ID.
func (p *Platform) ListWorkers() []SnapshotWorker {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ws := p.registry.Workers()
	out := make([]SnapshotWorker, len(ws))
	for i, w := range ws {
		out[i] = snapshotWorker(w)
	}
	return out
}

// ListTasks returns the open tasks sorted by ID.
func (p *Platform) ListTasks() []SnapshotTask {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ts := p.registry.Tasks()
	out := make([]SnapshotTask, len(ts))
	for i, t := range ts {
		out[i] = snapshotTask(t)
	}
	return out
}

// Admin HTTP endpoints (wired by Handler via registerAdmin):
//
//	GET    /workers                   → available workers
//	GET    /tasks                     → open tasks
//	PUT    /workers/{id}   {"x":..,"y":..,"speed":..,"radius":..}
//	DELETE /workers/{id}
//	DELETE /tasks/{id}
//	GET    /snapshot                  → full state JSON
func (p *Platform) registerAdmin(f *Front) {
	f.RouteJSON("GET /workers", func() any { return map[string]any{"workers": p.ListWorkers()} })
	f.RouteJSON("GET /tasks", func() any { return map[string]any{"tasks": p.ListTasks()} })
	f.RouteJSON("GET /snapshot", func() any { return p.Snapshot() })
	f.Route("PUT /workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var req WorkerRequest
		if !decode(w, r, &req) {
			return
		}
		if err := p.UpdateWorker(id, geo.Pt(req.X, req.Y), req.Speed, req.Radius); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{})
	})
	f.Route("DELETE /workers/{id}", byID(p.UnregisterWorker))
	f.Route("DELETE /tasks/{id}", byID(p.CancelTask))
}

// byID serves a DELETE route that applies op to the path's {id}.
func byID(op func(id int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := op(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{})
	}
}

func pathID(r *http.Request) (int, error) {
	var id int
	if _, err := fmt.Sscanf(r.PathValue("id"), "%d", &id); err != nil {
		return 0, fmt.Errorf("bad id %q", r.PathValue("id"))
	}
	return id, nil
}
