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
//     and the radius test depend only on static locations; the radius test
//     is geo.InDisc, as in BuildCandidates) and the full
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
//     solve would produce. Components persist across rounds: every entity
//     points at its component, a dirty member or a removal drops it, and
//     Plan rebuilds only what the dropped components and the dirty
//     entities reach. A kept component's record and UPPER terms (q̂) stay
//     valid for as long as it is kept.
//   - Order preservation. Entity order mirrors the from-scratch engine's
//     (arrival order with order-preserving compaction, or ascending
//     external ID under OrderByID), candidate lists are built by the same
//     position-major passes as BuildCandidates, and carried groups replay
//     in their original member order, keeping every position-sensitive
//     tie-break and float summation order intact.
package incremental

import (
	"context"
	"slices"
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
	pos   int // position in the current round's instance; -1 once removed
	w     model.Worker
	back  []*taskState // tasks holding an edge to this worker
	dirty bool
	comp  *component // nil while the worker has no active edge
	local int        // index in comp.workers
	seen  int        // Plan's visit generation
	qhat  float64    // UPPER's q̂, valid while comp.qhatOK
}

// taskState is one live task; it owns the edge records.
type taskState struct {
	uid   int
	pos   int // -1 once removed
	t     model.Task
	adj   []tEdge
	dirty bool
	comp  *component
	seen  int
}

// tEdge is one candidate edge, stored on the task side. travel is computed
// once at discovery; active caches last round's validity verdict.
type tEdge struct {
	w      *workerState
	travel float64
	active bool
}

// component is one connected component of the active candidate graph. It
// lives from the Plan that builds it until a member turns dirty or is
// removed. Members are kept in ascending position order, which compaction
// and the ID sort both preserve, so only part's positions need rewriting
// from round to round.
type component struct {
	workers []*workerState
	tasks   []*taskState
	part    partition.Component
	dead    bool // a member turned dirty or was removed
	// The carry record: group members as local worker indices, grouped by
	// local task index (task li's group is rec[recEnd[li-1]:recEnd[li]]),
	// in the order they were committed.
	rec      []int
	recEnd   []int
	recorded bool
	qhatOK   bool // the members' q̂ are valid
}

// Round is one planned engine round: the assembled instance (Quality is
// left nil for the caller to set before Solve), its components, and the
// per-component dirty classification. Carried/Resolved are filled by Solve.
// The instance and the components' member slices belong to the engine and
// are valid until the next Plan.
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
// Upper (optional) → Commit.
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

	// comps lists the live components in Round.Comps order; killed holds
	// the ones dropped since the last Plan, free the recycled ones.
	comps  []*component
	killed []*component
	free   []*component
	// solved lists the components Solve re-solved this round.
	solved []*component

	warm *assign.Warm
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
	round     Round
	searchBuf []int
	expired   []int
	gen       int   // Plan's visit generation
	seeds     []int // Plan's rebuild seeds: worker pos, or ^task pos
	stack     []int
	memW      []int
	memT      []int
	fresh     []*component
	next      []*component
	qh        assign.QHat
	qhat      []float64
}

// New returns an empty engine.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		em:     newEngineMetrics(cfg.Metrics),
		wByUID: make(map[int]*workerState),
		tByUID: make(map[int]*taskState),
		wGrid:  grid.New(0),
		tGrid:  grid.New(0),
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
// the caller) and drops its component. Workers that were actively
// connected become dirty.
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
	ts.pos = -1
	e.kill(ts.comp)
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

// dropWorker removes ws's edges and index entries; Commit has marked it
// and dropped its component. Tasks that were actively connected become
// dirty.
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

	// The grid decides the disc with geo.InDisc, as BuildCandidates does,
	// so only the travel and time terms remain to evaluate.
	e.searchBuf = e.tGrid.SearchCircle(w.Loc, w.Radius, e.searchBuf[:0])
	for _, uid := range e.searchBuf {
		ts := e.tByUID[uid]
		e.link(ws, ts)
	}
}

// link discovers the edge (ws, ts) if it can ever be valid, and appends it.
func (e *Engine) link(ws *workerState, ts *taskState) {
	slack := ts.t.Deadline - e.now
	travel := geo.TravelTime(ws.w.Loc, ts.t.Loc, ws.w.Speed)
	if travel > slack {
		// Already unreachable; slack only shrinks, so never add the edge.
		return
	}
	active := ts.t.Created <= e.now && ws.w.Arrive <= e.now
	if active {
		// The new endpoint is dirty already; the standing one's component
		// grows by the edge.
		e.markWorkerDirty(ws)
		e.markTaskDirty(ts)
	}
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
		// The query ran at maxRadius, so it returns every worker whose
		// own disc holds the task, and some more; InDisc keeps the former.
		if !geo.InDisc(t.Loc, ws.w.Loc, ws.w.Radius) {
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

	e.partition()
	comps := e.round.Comps[:0]
	dirty := e.round.Dirty[:0]
	for _, c := range e.comps {
		comps = append(comps, c.part)
		dirty = append(dirty, !e.cfg.Carry || !c.recorded)
	}
	e.round = Round{In: &e.in, Comps: comps, Dirty: dirty}
	e.solved = e.solved[:0]
	return &e.round
}

// partition brings e.comps up to date with the planned instance, in
// partition.Components' order. A component with no dirty member and no
// removed one is unchanged (dirty completeness), so it is kept with its
// member positions rewritten. Only the dirty entities and the members of
// dropped components seed new ones, and only what they reach is walked.
// Kept components stay in the order they had: Size is unchanged, and
// compaction and the ID sort preserve the relative order of entities and
// with it that of the Keys.
func (e *Engine) partition() {
	e.seeds = e.seeds[:0]
	for _, ws := range e.dirtyW {
		if ws.pos >= 0 {
			e.kill(ws.comp)
			e.seeds = append(e.seeds, ws.pos)
		}
	}
	for _, ts := range e.dirtyT {
		if ts.pos >= 0 {
			e.kill(ts.comp)
			e.seeds = append(e.seeds, ^ts.pos)
		}
	}
	kept := e.comps[:0]
	for _, c := range e.comps {
		if c.dead {
			continue
		}
		for li, ws := range c.workers {
			c.part.Workers[li] = ws.pos
		}
		for li, ts := range c.tasks {
			c.part.Tasks[li] = ts.pos
		}
		kept = append(kept, c)
	}
	e.comps = kept

	for _, c := range e.killed {
		for _, ws := range c.workers {
			if ws.pos >= 0 {
				e.seeds = append(e.seeds, ws.pos)
			}
		}
		for _, ts := range c.tasks {
			if ts.pos >= 0 {
				e.seeds = append(e.seeds, ^ts.pos)
			}
		}
		e.free = append(e.free, c)
	}
	e.killed = e.killed[:0]

	e.gen++
	e.fresh = e.fresh[:0]
	for _, n := range e.seeds {
		if c := e.grow(n); c != nil {
			e.fresh = append(e.fresh, c)
		}
	}
	if len(e.fresh) == 0 {
		return
	}
	slices.SortFunc(e.fresh, func(c, d *component) int { return partition.Compare(c.part, d.part) })
	next := e.next[:0]
	i, j := 0, 0
	for i < len(e.comps) && j < len(e.fresh) {
		if partition.Compare(e.fresh[j].part, e.comps[i].part) < 0 {
			next = append(next, e.fresh[j])
			j++
		} else {
			next = append(next, e.comps[i])
			i++
		}
	}
	next = append(next, e.comps[i:]...)
	next = append(next, e.fresh[j:]...)
	e.comps, e.next = next, e.comps[:0]
}

// grow walks the component of node n (a worker position, or ^ a task
// position) over the round's candidate lists, unless an earlier walk of
// this Plan covered it, and builds it. An entity with no candidate is in no
// component; grow returns nil for it.
func (e *Engine) grow(n int) *component {
	if !e.visit(n) {
		return nil
	}
	e.stack = append(e.stack[:0], n)
	e.memW, e.memT = e.memW[:0], e.memT[:0]
	pairs := 0
	for len(e.stack) > 0 {
		n := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		if n >= 0 {
			e.memW = append(e.memW, n)
			pairs += len(e.in.WorkerCand[n])
			for _, t := range e.in.WorkerCand[n] {
				if e.visit(^t) {
					e.stack = append(e.stack, ^t)
				}
			}
			continue
		}
		e.memT = append(e.memT, ^n)
		for _, w := range e.in.TaskCand[^n] {
			if e.visit(w) {
				e.stack = append(e.stack, w)
			}
		}
	}
	if pairs == 0 {
		if n >= 0 {
			e.workers[n].comp = nil
		} else {
			e.tasks[^n].comp = nil
		}
		return nil
	}
	slices.Sort(e.memW)
	slices.Sort(e.memT)
	c := e.newComponent()
	for li, w := range e.memW {
		ws := e.workers[w]
		ws.comp, ws.local = c, li
		c.workers = append(c.workers, ws)
	}
	for _, t := range e.memT {
		ts := e.tasks[t]
		ts.comp = c
		c.tasks = append(c.tasks, ts)
	}
	c.part.Workers = append(c.part.Workers, e.memW...)
	c.part.Tasks = append(c.part.Tasks, e.memT...)
	c.part.Pairs = pairs
	return c
}

// visit marks node n as reached by this Plan's walks and reports whether
// it was not yet.
func (e *Engine) visit(n int) bool {
	var seen *int
	if n >= 0 {
		seen = &e.workers[n].seen
	} else {
		seen = &e.tasks[^n].seen
	}
	if *seen == e.gen {
		return false
	}
	*seen = e.gen
	return true
}

// newComponent returns an empty component, recycled when one is free.
// Recycling keeps churn-incremental's held heap within about 1 % of a
// whole-graph partition's; allocating every new component raised it by
// about 11 %.
func (e *Engine) newComponent() *component {
	n := len(e.free)
	if n == 0 {
		return &component{}
	}
	c := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	*c = component{
		workers: c.workers[:0],
		tasks:   c.tasks[:0],
		part:    partition.Component{Workers: c.part.Workers[:0], Tasks: c.part.Tasks[:0]},
		rec:     c.rec[:0],
		recEnd:  c.recEnd[:0],
	}
	return c
}

// kill drops c (nil: none) from the live components. Its slot in comps is
// pruned, and its storage recycled, at the next Plan, so the round's
// Comps stay readable until then.
func (e *Engine) kill(c *component) {
	if c != nil && !c.dead {
		c.dead = true
		e.killed = append(e.killed, c)
	}
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
	for ci, c := range e.comps {
		if ctx.Err() != nil {
			break
		}
		if !r.Dirty[ci] {
			e.replay(c, a)
			r.Carried++
			continue
		}
		sub, idx := r.In.SubInstance(c.part.Workers, c.part.Tasks)
		s := solver
		if f, ok := solver.(assign.Forker); ok {
			// Seed each fork from the component's identity, so seed-taking
			// solvers see the same seeds however the components are visited.
			s = f.Fork(assign.ComponentSeed(e.cfg.Seed, c.part.Key()))
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
		e.solved = append(e.solved, c)
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
func (e *Engine) replay(c *component, a *model.Assignment) {
	start := 0
	for li, end := range c.recEnd {
		t := c.part.Tasks[li]
		for _, wi := range c.rec[start:end] {
			a.Assign(c.part.Workers[wi], t)
		}
		start = end
	}
}

// Upper returns the round's UPPER bound (Equation 9), bitwise equal to
// assign.Upper on the planned instance. Call it between Plan and Commit,
// with Quality set. Under Carry a worker's q̂ depends only on its
// component (its co-candidates are there, and qualities are a fixed
// function of external IDs), so only the workers of components built since
// their last evaluation are walked; the combine step is always whole.
func (e *Engine) Upper() float64 {
	e.qh.Reset(&e.in)
	for _, c := range e.comps {
		if c.qhatOK {
			continue
		}
		for li, ws := range c.workers {
			ws.qhat = e.qh.Of(c.part.Workers[li])
		}
		c.qhatOK = e.cfg.Carry
	}
	if cap(e.qhat) < len(e.workers) {
		e.qhat = make([]float64, len(e.workers))
	}
	e.qhat = e.qhat[:len(e.workers)]
	for i, ws := range e.workers {
		e.qhat[i] = 0
		if ws.comp != nil {
			e.qhat[i] = ws.qhat
		}
	}
	return e.qh.Bound(e.qhat)
}

// Commit ends the round: it records the assignment of every re-solved
// component that keeps all its members, clears the consumed dirty state,
// removes the dispatched/departed entities (given as positions in the
// planned instance), and prunes the warm cache. Neighbors of removed
// entities become dirty for the next round, and their components are
// dropped.
func (e *Engine) Commit(a *model.Assignment, removeWorkers, removeTasks []int) {
	// Mark the removals; their components are void, records included.
	for _, i := range removeWorkers {
		e.workers[i].pos = -1
		e.kill(e.workers[i].comp)
	}
	for _, j := range removeTasks {
		e.tasks[j].pos = -1
		e.kill(e.tasks[j].comp)
	}
	if e.cfg.Carry && a != nil {
		for _, c := range e.solved {
			if !c.dead {
				e.record(c, a)
			}
		}
	}
	e.solved = e.solved[:0]

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
		for _, ws := range e.workers {
			if ws.pos < 0 {
				e.dropWorker(ws)
				continue
			}
			kept = append(kept, ws)
		}
		e.workers = kept
	}
	if len(removeTasks) > 0 {
		kept := e.tasks[:0]
		for _, ts := range e.tasks {
			if ts.pos < 0 {
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
	e.round.In = nil
}

// record stores a's groups on c as its carry record.
func (e *Engine) record(c *component, a *model.Assignment) {
	c.rec, c.recEnd = c.rec[:0], c.recEnd[:0]
	for _, t := range c.part.Tasks {
		for _, w := range a.TaskWorkers[t] {
			ws := e.workers[w]
			if ws.comp != c {
				panic("incremental: assigned worker outside its component")
			}
			c.rec = append(c.rec, ws.local)
		}
		c.recEnd = append(c.recEnd, len(c.rec))
	}
	c.recorded = true
}

// sortByID orders both entity slices ascending by external ID (the shard
// tier's canonical ordering; IDs are unique there).
func sortByID(ws []*workerState, ts []*taskState) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].w.ID < ws[j].w.ID })
	sort.Slice(ts, func(i, j int) bool { return ts[i].t.ID < ts[j].t.ID })
}
