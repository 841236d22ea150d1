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
// Busy workers (dispatched, not yet rated) cannot be updated.
func (p *Platform) UpdateWorker(id int, loc geo.Point, speed, radius float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
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
	w.Arrive = p.clock()
	p.workers[id] = w
	return nil
}

// UnregisterWorker removes an available worker from the pool. Busy workers
// cannot leave until their task is rated.
func (p *Platform) UnregisterWorker(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.workers[id]; !ok {
		return fmt.Errorf("server: worker %d not available (unknown or busy)", id)
	}
	delete(p.workers, id)
	p.syncGauges()
	return nil
}

// CancelTask withdraws an open (not yet dispatched) task.
func (p *Platform) CancelTask(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tasks[id]; !ok {
		return fmt.Errorf("server: task %d not open", id)
	}
	delete(p.tasks, id)
	p.syncGauges()
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

// SnapshotTask is one open task.
type SnapshotTask struct {
	ID       int     `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Capacity int     `json:"capacity"`
	Created  float64 `json:"created"`
	Deadline float64 `json:"deadline"`
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
	s := &Snapshot{
		B:            p.b,
		NextWorkerID: p.nextWorkerID,
		NextTaskID:   p.nextTaskID,
		Now:          p.clock(),
		History:      p.history.Export(),
		TotalScore:   p.totalScore,
		Batches:      p.batches,
		DoneTasks:    p.dispatchedTasks,
	}
	for id, w := range p.workers {
		s.Workers = append(s.Workers, SnapshotWorker{
			ID: id, X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive,
		})
	}
	sort.Slice(s.Workers, func(a, b int) bool { return s.Workers[a].ID < s.Workers[b].ID })
	for id, t := range p.tasks {
		s.Tasks = append(s.Tasks, SnapshotTask{
			ID: id, X: t.Loc.X, Y: t.Loc.Y, Capacity: t.Capacity, Created: t.Created, Deadline: t.Deadline,
		})
	}
	sort.Slice(s.Tasks, func(a, b int) bool { return s.Tasks[a].ID < s.Tasks[b].ID })
	for taskID, grp := range p.dispatched {
		if p.rated[taskID] {
			continue
		}
		sg := SnapshotGroup{TaskID: taskID, X: grp.loc.X, Y: grp.loc.Y}
		for _, w := range grp.workers {
			sg.Workers = append(sg.Workers, SnapshotWorker{
				ID: w.ID, X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive,
			})
		}
		sort.Slice(sg.Workers, func(a, b int) bool { return sg.Workers[a].ID < sg.Workers[b].ID })
		s.Dispatched = append(s.Dispatched, sg)
	}
	sort.Slice(s.Dispatched, func(a, b int) bool { return s.Dispatched[a].TaskID < s.Dispatched[b].TaskID })
	return s
}

// Restore builds a platform from a snapshot. The restored platform uses
// the default batch-counter clock starting at the snapshot time unless
// cfg.Clock is provided.
func Restore(s *Snapshot, cfg Config) (*Platform, error) {
	if s.B < 2 {
		return nil, fmt.Errorf("server: snapshot B = %d", s.B)
	}
	cfg.B = s.B
	p, err := NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		// Resume the internal clock at the snapshot time.
		batch := s.Now
		p.clock = func() float64 { return batch }
		p.advance = func() { batch++ }
	}
	p.nextWorkerID = s.NextWorkerID
	p.nextTaskID = s.NextTaskID
	p.totalScore = s.TotalScore
	p.batches = s.Batches
	p.dispatchedTasks = s.DoneTasks
	for _, r := range s.History {
		if r.I >= s.NextWorkerID || r.K >= s.NextWorkerID {
			return nil, fmt.Errorf("server: snapshot history pair (%d,%d) out of worker ID range", r.I, r.K)
		}
	}
	p.history.Grow(s.NextWorkerID)
	if err := p.history.Import(s.History); err != nil {
		return nil, err
	}
	for _, w := range s.Workers {
		if w.ID < 0 || w.ID >= s.NextWorkerID {
			return nil, fmt.Errorf("server: snapshot worker %d out of ID range", w.ID)
		}
		p.workers[w.ID] = model.Worker{
			ID: w.ID, Loc: geo.Pt(w.X, w.Y), Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive,
		}
	}
	for _, t := range s.Tasks {
		if t.ID < 0 || t.ID >= s.NextTaskID {
			return nil, fmt.Errorf("server: snapshot task %d out of ID range", t.ID)
		}
		p.tasks[t.ID] = model.Task{
			ID: t.ID, Loc: geo.Pt(t.X, t.Y), Capacity: t.Capacity, Created: t.Created, Deadline: t.Deadline,
		}
	}
	for _, g := range s.Dispatched {
		grp := dispatchedGroup{loc: geo.Pt(g.X, g.Y)}
		for _, w := range g.Workers {
			grp.ids = append(grp.ids, w.ID)
			grp.workers = append(grp.workers, model.Worker{
				ID: w.ID, Loc: geo.Pt(w.X, w.Y), Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive,
			})
		}
		p.dispatched[g.TaskID] = grp
		p.busyCount += len(grp.workers)
	}
	p.syncGauges()
	return p, nil
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
	out := make([]SnapshotWorker, 0, len(p.workers))
	for id, w := range p.workers {
		out = append(out, SnapshotWorker{
			ID: id, X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed, Radius: w.Radius, Arrive: w.Arrive,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ListTasks returns the open tasks sorted by ID.
func (p *Platform) ListTasks() []SnapshotTask {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]SnapshotTask, 0, len(p.tasks))
	for id, t := range p.tasks {
		out = append(out, SnapshotTask{
			ID: id, X: t.Loc.X, Y: t.Loc.Y, Capacity: t.Capacity, Created: t.Created, Deadline: t.Deadline,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
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
func (p *Platform) registerAdmin(mux *http.ServeMux) {
	p.route(mux, "GET /workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"workers": p.ListWorkers()})
	})
	p.route(mux, "GET /tasks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tasks": p.ListTasks()})
	})
	p.route(mux, "PUT /workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var req WorkerRequest
		if !Decode(w, r, &req) {
			return
		}
		if err := p.UpdateWorker(id, geo.Pt(req.X, req.Y), req.Speed, req.Radius); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{})
	})
	p.route(mux, "DELETE /workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := p.UnregisterWorker(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{})
	})
	p.route(mux, "DELETE /tasks/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := pathID(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := p.CancelTask(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{})
	})
	p.route(mux, "GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.Snapshot())
	})
}

func pathID(r *http.Request) (int, error) {
	var id int
	if _, err := fmt.Sscanf(r.PathValue("id"), "%d", &id); err != nil {
		return 0, fmt.Errorf("bad id %q", r.PathValue("id"))
	}
	return id, nil
}
