// Package incremental is the persistent cross-round solving engine of the
// batch tier. Instead of rebuilding the candidate graph and re-solving the
// whole instance every round, an Engine owns the live worker/task
// population, maintains the validity graph under arrivals, departures,
// dispatches, and deadline decay, tracks which connected components were
// touched since the previous round, and re-solves only those — carrying the
// previous assignment of every clean component forward verbatim and
// warm-starting the solvers on the dirty ones.
//
// The contract is strict output equivalence: for deterministic solvers
// (TPG, GT, GT+LUB — anything whose result is a pure function of the
// instance), the assignment and score of every round are bitwise identical
// to a from-scratch rebuild-and-solve of the same round. The pillars:
//
//   - Edge exactness. An edge is stored with its travel time once (travel
//     and the radius test depend only on static locations) and the full
//     validity predicate of Definition 3 is re-evaluated against it every
//     round, so the active edge set equals BuildCandidates' output exactly.
//     Slack only shrinks, so travel > slack drops an edge permanently;
//     the time gates (task created, worker arrived) can only switch an
//     edge on, and any flip dirties both endpoints.
//   - Dirty completeness. Component membership can only change through an
//     added, removed, or flipped edge, or an added/removed entity — every
//     one of which dirties the entities involved. A component with no dirty
//     member therefore has identical membership, edges, entity attributes,
//     and (by the caller's quality contract) qualities — its previous
//     solution, replayed in recorded member order, is the solution a fresh
//     solve would produce. A membership record check backs this argument
//     with a runtime verification: on any mismatch the component is
//     re-solved rather than carried.
//   - Order preservation. Entity order mirrors the from-scratch engine's
//     (arrival order with order-preserving compaction, or ascending
//     external ID under OrderByID), candidate lists are built by the same
//     position-major passes as BuildCandidates, and carried groups replay
//     in their original member order, keeping every position-sensitive
//     tie-break and float summation order intact.
package incremental

import (
	"context"
	"sort"

	"casc/internal/assign"
	"casc/internal/geo"
	"casc/internal/grid"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/partition"
)

// Config configures an Engine.
type Config struct {
	// B is the least group size, fixed for the engine's lifetime.
	B int
	// Travel optionally overrides the Euclidean travel-time model; it must
	// be a pure function of the (worker, task) pair, since the engine
	// evaluates it once per edge at discovery.
	Travel model.TravelFunc
	// OrderByID keeps workers and tasks sorted ascending by external ID
	// (the shard tier's ordering); default is arrival order with
	// order-preserving compaction (the batch tier's ordering).
	OrderByID bool
	// Carry enables clean-component carry-forward and solver warm-starts.
	// It requires the caller's Quality model to be a fixed function of
	// worker external IDs across rounds; callers that cannot promise that
	// (the shard tier's mutating history) leave it off and still get
	// incremental graph maintenance.
	Carry bool
	// Seed is the base seed from which per-component seeds are derived for
	// seed-taking solvers (assign.ComponentSeed).
	Seed int64
	// Metrics, when non-nil, receives the casc_incremental_* series.
	Metrics *metrics.Registry
}

// workerState is one live worker. States are heap-allocated once and
// referenced by pointer from edges, so compaction never invalidates them.
type workerState struct {
	uid   int
	pos   int // position in the current round's instance
	w     model.Worker
	back  []*taskState // tasks holding an edge to this worker
	dirty bool
}

// taskState is one live task; it owns the edge records.
type taskState struct {
	uid   int
	pos   int
	t     model.Task
	adj   []tEdge
	dirty bool
}

// tEdge is one candidate edge, stored on the task side. travel is computed
// once at discovery; active caches last round's validity verdict.
type tEdge struct {
	w      *workerState
	travel float64
	active bool
}

// record is a clean-carry snapshot of one component's assignment, keyed by
// the uid of the component's first worker. Members are stored as uids in
// component order so survival and order can be verified exactly; groups
// store worker members as local indices in original commit order.
type record struct {
	workerUIDs []int
	taskUIDs   []int
	groups     [][]int // per local task index; nil entry = empty group
}

// Round is one planned engine round: the assembled instance (Quality is
// left nil for the caller to set before Solve), its components, and the
// per-component dirty classification. Carried/Resolved are filled by Solve.
type Round struct {
	In    *model.Instance
	Comps []partition.Component
	Dirty []bool
	// Carried and Resolved count clean-carried and re-solved components
	// after Solve.
	Carried  int
	Resolved int
}

// Engine is the persistent incremental solving engine. It is not safe for
// concurrent use; the intended cadence per round is
// BeginRound → AddWorker*/AddTask* → Plan → (caller sets Quality) → Solve →
// Commit.
type Engine struct {
	cfg Config
	em  *engineMetrics

	now     float64
	nextUID int

	workers []*workerState
	tasks   []*taskState
	wByUID  map[int]*workerState
	tByUID  map[int]*taskState
	wGrid   *grid.Index
	tGrid   *grid.Index

	maxRadius float64
	edgeCount int

	dirtyW []*workerState
	dirtyT []*taskState

	records map[int]*record
	warm    *assign.Warm
	// liveIDs counts live tasks per external ID (the warm cache's key);
	// goneIDs lists the IDs whose count fell to zero since the last
	// Commit, which then forgets their warm entries. Kept only under
	// Carry.
	liveIDs map[int]int
	goneIDs []int
	// arena is the engine-owned solver scratch, attached to every
	// per-component fork in Solve. Components are solved serially and each
	// arena-owned result is lifted into the round assignment before the
	// next component recycles the memory, so one arena serves the whole
	// engine lifetime — steady-state rounds allocate nothing in the
	// solver.
	arena *assign.Arena

	// Per-round scratch, reused across rounds.
	in        model.Instance
	bufs      model.CandidateBuffers
	builder   *partition.Builder
	round     Round
	searchBuf []int
	wLocalIdx []int // parent worker pos -> local index within a component
	wLocalGen []int // generation marker for wLocalIdx validity
	localGen  int
	expired   []int
}

// New returns an empty engine.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:     cfg,
		em:      newEngineMetrics(cfg.Metrics),
		wByUID:  make(map[int]*workerState),
		tByUID:  make(map[int]*taskState),
		wGrid:   grid.New(0),
		tGrid:   grid.New(0),
		records: make(map[int]*record),
		builder: partition.NewBuilder(),
	}
	if cfg.Carry {
		e.warm = assign.NewWarm()
		e.liveIDs = make(map[int]int)
	}
	return e
}

// NumWorkers returns the live worker count.
func (e *Engine) NumWorkers() int { return len(e.workers) }

// NumTasks returns the live task count.
func (e *Engine) NumTasks() int { return len(e.tasks) }

// travelTime evaluates the configured travel model for a pair.
func (e *Engine) travelTime(w model.Worker, t model.Task) float64 {
	if e.cfg.Travel != nil {
		return e.cfg.Travel(w, t)
	}
	return geo.TravelTime(w.Loc, t.Loc, w.Speed)
}

func (e *Engine) markWorkerDirty(ws *workerState) {
	if !ws.dirty {
		ws.dirty = true
		e.dirtyW = append(e.dirtyW, ws)
	}
}

func (e *Engine) markTaskDirty(ts *taskState) {
	if !ts.dirty {
		ts.dirty = true
		e.dirtyT = append(e.dirtyT, ts)
	}
}

// BeginRound advances the engine to timestamp now: tasks past their
// deadline are expired (same predicate as the from-scratch engine: a task
// survives only while Deadline > now), every surviving edge is re-checked
// against the exact validity predicate. It returns the external IDs of the
// tasks expired this round, in entity order.
func (e *Engine) BeginRound(now float64) []int {
	e.now = now
	if e.em != nil {
		e.em.rounds.Inc()
	}

	// Expiry sweep, order-preserving.
	e.expired = e.expired[:0]
	kept := e.tasks[:0]
	for _, ts := range e.tasks {
		if ts.t.Deadline > now {
			kept = append(kept, ts)
			continue
		}
		e.expired = append(e.expired, ts.t.ID)
		e.dropTask(ts)
	}
	e.tasks = kept

	// Edge re-evaluation: the stored travel plus the live time terms
	// reproduce Definition 3 exactly (the radius test is location-static
	// and held at discovery).
	for _, ts := range e.tasks {
		slack := ts.t.Deadline - now
		for k := 0; k < len(ts.adj); {
			ed := &ts.adj[k]
			if ed.travel > slack {
				// Slack only shrinks: this edge can never be valid again.
				if ed.active {
					e.markWorkerDirty(ed.w)
					e.markTaskDirty(ts)
				}
				e.unlink(ed.w, ts)
				ts.adj[k] = ts.adj[len(ts.adj)-1]
				ts.adj = ts.adj[:len(ts.adj)-1]
				e.edgeCount--
				if e.em != nil {
					e.em.edgesDropped.Inc()
				}
				continue
			}
			active := ts.t.Created <= now && ed.w.w.Arrive <= now
			if active != ed.active {
				ed.active = active
				e.markWorkerDirty(ed.w)
				e.markTaskDirty(ts)
			}
			k++
		}
	}

	return e.expired
}

// dropTask removes ts's edges and index entries (ts itself is compacted by
// the caller). Workers that were actively connected become dirty.
func (e *Engine) dropTask(ts *taskState) {
	for i := range ts.adj {
		ed := &ts.adj[i]
		if ed.active {
			e.markWorkerDirty(ed.w)
		}
		e.unlink(ed.w, ts)
	}
	e.edgeCount -= len(ts.adj)
	if e.em != nil {
		e.em.edgesDropped.Add(uint64(len(ts.adj)))
	}
	ts.adj = nil
	e.tGrid.Delete(ts.t.Loc, ts.uid)
	delete(e.tByUID, ts.uid)
	if e.liveIDs != nil {
		id := ts.t.ID
		if n := e.liveIDs[id] - 1; n > 0 {
			e.liveIDs[id] = n
		} else {
			delete(e.liveIDs, id)
			e.goneIDs = append(e.goneIDs, id)
		}
	}
}

// dropWorker removes ws's edges and index entries. Tasks that were actively
// connected become dirty.
func (e *Engine) dropWorker(ws *workerState) {
	for _, ts := range ws.back {
		for k := range ts.adj {
			if ts.adj[k].w == ws {
				if ts.adj[k].active {
					e.markTaskDirty(ts)
				}
				ts.adj[k] = ts.adj[len(ts.adj)-1]
				ts.adj = ts.adj[:len(ts.adj)-1]
				e.edgeCount--
				if e.em != nil {
					e.em.edgesDropped.Inc()
				}
				break
			}
		}
	}
	ws.back = nil
	e.wGrid.Delete(ws.w.Loc, ws.uid)
	delete(e.wByUID, ws.uid)
}

// unlink removes ts from ws's back list.
func (e *Engine) unlink(ws *workerState, ts *taskState) {
	for i, b := range ws.back {
		if b == ts {
			ws.back[i] = ws.back[len(ws.back)-1]
			ws.back = ws.back[:len(ws.back)-1]
			return
		}
	}
}

// AddWorker admits a worker and discovers its candidate edges through the
// task index. Call between BeginRound and Plan.
func (e *Engine) AddWorker(w model.Worker) {
	ws := &workerState{uid: e.nextUID, w: w}
	e.nextUID++
	e.workers = append(e.workers, ws)
	e.wByUID[ws.uid] = ws
	e.wGrid.Insert(w.Loc, ws.uid)
	if w.Radius > e.maxRadius {
		e.maxRadius = w.Radius
	}
	e.markWorkerDirty(ws)

	// The grid search is exact on d ≤ Radius, so only the travel and time
	// terms remain to evaluate.
	e.searchBuf = e.tGrid.SearchCircle(w.Loc, w.Radius, e.searchBuf[:0])
	for _, uid := range e.searchBuf {
		ts := e.tByUID[uid]
		e.link(ws, ts)
	}
}

// link discovers the edge (ws, ts) if it can ever be valid, and appends it.
func (e *Engine) link(ws *workerState, ts *taskState) {
	slack := ts.t.Deadline - e.now
	travel := e.travelTime(ws.w, ts.t)
	if travel > slack {
		// Already unreachable; slack only shrinks, so never add the edge.
		return
	}
	active := ts.t.Created <= e.now && ws.w.Arrive <= e.now
	ts.adj = append(ts.adj, tEdge{w: ws, travel: travel, active: active})
	ws.back = append(ws.back, ts)
	e.edgeCount++
	if e.em != nil {
		e.em.edgesAdded.Inc()
	}
}

// AddTask admits a task and discovers its candidate edges with a grid
// query. Call between BeginRound and Plan.
func (e *Engine) AddTask(t model.Task) {
	ts := &taskState{uid: e.nextUID, t: t}
	e.nextUID++
	e.tasks = append(e.tasks, ts)
	e.tByUID[ts.uid] = ts
	e.tGrid.Insert(t.Loc, ts.uid)
	e.markTaskDirty(ts)
	if e.liveIDs != nil {
		e.liveIDs[t.ID]++
	}

	e.searchBuf = e.wGrid.SearchCircle(t.Loc, e.maxRadius, e.searchBuf[:0])
	for _, uid := range e.searchBuf {
		ws := e.wByUID[uid]
		// The grid query over-approximates the radius term (it uses
		// maxRadius), so the exact disc test applies here.
		if ws.w.Loc.Dist(t.Loc) > ws.w.Radius {
			continue
		}
		e.link(ws, ts)
	}
}

// Plan assembles the round: entity ordering, the instance (Quality left
// nil for the caller), candidate lists from the maintained adjacency, the
// component partition, and the per-component dirty classification.
func (e *Engine) Plan() *Round {
	if e.cfg.OrderByID {
		sortByID(e.workers, e.tasks)
	}
	for i, ws := range e.workers {
		ws.pos = i
	}
	for j, ts := range e.tasks {
		ts.pos = j
	}

	e.in.B = e.cfg.B
	e.in.Now = e.now
	e.in.Travel = e.cfg.Travel
	e.in.Quality = nil
	e.in.Workers = e.in.Workers[:0]
	for _, ws := range e.workers {
		e.in.Workers = append(e.in.Workers, ws.w)
	}
	e.in.Tasks = e.in.Tasks[:0]
	for _, ts := range e.tasks {
		e.in.Tasks = append(e.in.Tasks, ts.t)
	}

	// Task-major fill: ascending task positions append ascending into each
	// worker's list; DeriveTaskCand then mirrors BuildCandidates'
	// worker-major pass. Both lists come out identical to a fresh build.
	e.bufs.Reset(len(e.workers), len(e.tasks))
	for j, ts := range e.tasks {
		for i := range ts.adj {
			if ts.adj[i].active {
				w := ts.adj[i].w
				e.bufs.WorkerCand[w.pos] = append(e.bufs.WorkerCand[w.pos], j)
			}
		}
	}
	e.bufs.DeriveTaskCand()
	e.bufs.Install(&e.in)
	if e.em != nil {
		e.em.edges.Set(float64(e.edgeCount))
	}

	comps := e.builder.Build(partition.Adjacency{WorkerCand: e.in.WorkerCand, TaskCand: e.in.TaskCand})
	dirty := e.round.Dirty[:0]
	for _, c := range comps {
		dirty = append(dirty, e.classify(c))
	}
	e.round = Round{In: &e.in, Comps: comps, Dirty: dirty}
	return &e.round
}

// classify reports whether a component must be re-solved: any dirty member,
// or (under Carry) no verified record of its exact membership.
func (e *Engine) classify(c partition.Component) bool {
	for _, w := range c.Workers {
		if e.workers[w].dirty {
			return true
		}
	}
	for _, t := range c.Tasks {
		if e.tasks[t].dirty {
			return true
		}
	}
	if !e.cfg.Carry {
		return true
	}
	rec := e.records[e.workers[c.Workers[0]].uid]
	if rec == nil || len(rec.workerUIDs) != len(c.Workers) || len(rec.taskUIDs) != len(c.Tasks) {
		return true
	}
	for i, w := range c.Workers {
		if rec.workerUIDs[i] != e.workers[w].uid {
			return true
		}
	}
	for i, t := range c.Tasks {
		if rec.taskUIDs[i] != e.tasks[t].uid {
			return true
		}
	}
	return false
}

// Solve produces the round's assignment: clean components replay their
// recorded groups, dirty components are re-solved on their sub-instance
// (warm-started under Carry) and lifted back. The caller must have set
// Quality on the planned instance. For deterministic solvers the result is
// bitwise identical to solver.Solve on the full instance.
func (e *Engine) Solve(ctx context.Context, solver assign.Solver) (*model.Assignment, error) {
	r := &e.round
	a := model.NewAssignment(r.In)
	r.Carried, r.Resolved = 0, 0
	for ci, c := range r.Comps {
		if ctx.Err() != nil {
			break
		}
		if !r.Dirty[ci] {
			e.replay(c, a)
			r.Carried++
			continue
		}
		sub, idx := r.In.SubInstance(c.Workers, c.Tasks)
		s := solver
		if f, ok := solver.(assign.Forker); ok {
			// Seed each fork from the component's identity, so seed-taking
			// solvers see the same seeds however the components are visited.
			s = f.Fork(assign.ComponentSeed(e.cfg.Seed, c.Key()))
			// Forks are throwaway, so hand them the engine's arena (solves
			// are serial and each result is lifted before the next solve).
			// A non-Forker solver keeps whatever arena its owner set.
			if h, ok := s.(assign.ArenaHolder); ok {
				if e.arena == nil {
					e.arena = assign.NewArena()
				}
				h.SetArena(e.arena)
			}
		}
		sa, err := assign.SolveMaybeWarm(ctx, s, sub, e.warm)
		if err != nil {
			return nil, err
		}
		if sa != nil {
			idx.Lift(sa, a)
		}
		r.Resolved++
	}
	if e.em != nil {
		e.em.carried.Add(uint64(r.Carried))
		e.em.resolved.Add(uint64(r.Resolved))
	}
	return a, nil
}

// replay applies a clean component's recorded groups onto a, in the exact
// member order they were committed.
func (e *Engine) replay(c partition.Component, a *model.Assignment) {
	rec := e.records[e.workers[c.Workers[0]].uid]
	for li, g := range rec.groups {
		t := c.Tasks[li]
		for _, wi := range g {
			a.Assign(c.Workers[wi], t)
		}
	}
}

// Commit ends the round: it snapshots carry records from the assignment,
// clears the consumed dirty state, removes the dispatched/departed entities
// (given as positions in the planned instance), and prunes the warm cache.
// Neighbors of removed entities become dirty for the next round.
func (e *Engine) Commit(a *model.Assignment, removeWorkers, removeTasks []int) {
	r := &e.round
	removedW := make([]bool, len(e.workers))
	for _, i := range removeWorkers {
		removedW[i] = true
	}
	removedT := make([]bool, len(e.tasks))
	for _, j := range removeTasks {
		removedT[j] = true
	}

	if e.cfg.Carry && a != nil {
		e.snapshotRecords(a, removedW, removedT)
	}

	// The round's dirty state was consumed by Plan; reset it before the
	// removals below seed next round's.
	for _, ws := range e.dirtyW {
		ws.dirty = false
	}
	e.dirtyW = e.dirtyW[:0]
	for _, ts := range e.dirtyT {
		ts.dirty = false
	}
	e.dirtyT = e.dirtyT[:0]

	if len(removeWorkers) > 0 {
		kept := e.workers[:0]
		for i, ws := range e.workers {
			if removedW[i] {
				e.dropWorker(ws)
				continue
			}
			kept = append(kept, ws)
		}
		e.workers = kept
	}
	if len(removeTasks) > 0 {
		kept := e.tasks[:0]
		for j, ts := range e.tasks {
			if removedT[j] {
				e.dropTask(ts)
				continue
			}
			kept = append(kept, ts)
		}
		e.tasks = kept
	}

	if e.warm != nil {
		// Every warm entry was stored by a solve of a then-live task, so
		// forgetting the IDs that lost their last live task since the
		// previous Commit leaves exactly the entries of live IDs.
		for _, id := range e.goneIDs {
			if e.liveIDs[id] == 0 {
				e.warm.Forget(id)
			}
		}
		e.goneIDs = e.goneIDs[:0]
		if e.em != nil {
			e.em.warmEntries.Set(float64(e.warm.Len()))
		}
	}
	r.In = nil
}

// snapshotRecords rebuilds the carry records from this round's assignment:
// one record per component with no removed member, keyed by first-worker
// uid. Components losing a member are left unrecorded — they will be dirty
// next round anyway, and a stale record could never verify.
func (e *Engine) snapshotRecords(a *model.Assignment, removedW, removedT []bool) {
	if cap(e.wLocalIdx) < len(e.workers) {
		e.wLocalIdx = make([]int, len(e.workers))
		e.wLocalGen = make([]int, len(e.workers))
	}
	e.wLocalIdx = e.wLocalIdx[:len(e.workers)]
	e.wLocalGen = e.wLocalGen[:len(e.workers)]

	records := make(map[int]*record, len(e.round.Comps))
	for _, c := range e.round.Comps {
		if e.anyRemoved(c, removedW, removedT) {
			continue
		}
		e.localGen++
		rec := &record{
			workerUIDs: make([]int, len(c.Workers)),
			taskUIDs:   make([]int, len(c.Tasks)),
			groups:     make([][]int, len(c.Tasks)),
		}
		for li, w := range c.Workers {
			rec.workerUIDs[li] = e.workers[w].uid
			e.wLocalIdx[w] = li
			e.wLocalGen[w] = e.localGen
		}
		for li, t := range c.Tasks {
			rec.taskUIDs[li] = e.tasks[t].uid
			ws := a.TaskWorkers[t]
			if len(ws) == 0 {
				continue
			}
			g := make([]int, len(ws))
			for gi, w := range ws {
				if e.wLocalGen[w] != e.localGen {
					panic("incremental: assigned worker outside its component")
				}
				g[gi] = e.wLocalIdx[w]
			}
			rec.groups[li] = g
		}
		records[rec.workerUIDs[0]] = rec
	}
	e.records = records
}

// sortByID orders both entity slices ascending by external ID (the shard
// tier's canonical ordering; IDs are unique there).
func sortByID(ws []*workerState, ts []*taskState) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].w.ID < ws[j].w.ID })
	sort.Slice(ts, func(i, j int) bool { return ts[i].t.ID < ts[j].t.ID })
}

// anyRemoved reports whether the component loses a member this Commit.
func (e *Engine) anyRemoved(c partition.Component, removedW, removedT []bool) bool {
	for _, w := range c.Workers {
		if removedW[w] {
			return true
		}
	}
	for _, t := range c.Tasks {
		if removedT[t] {
			return true
		}
	}
	return false
}
