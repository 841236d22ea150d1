// Package incremental is the persistent cross-round solving engine of the
// batch tier. Instead of rebuilding the candidate graph and re-solving the
// whole instance every round, an Engine owns the live worker/task
// population, maintains the validity graph under arrivals, departures,
// dispatches, and deadline decay, tracks which connected components were
// touched since the previous round, and re-solves only those — carrying the
// previous assignment of every clean component forward verbatim and
// solving each dirty one on its own. A round costs in proportion
// to what changed: BeginRound visits only the tasks whose schedule falls
// due, and Plan rewrites only the instance positions and candidate lists
// that moved.
//
// The contract is strict output equivalence: for deterministic solvers
// (TPG, GT, GT+LUB — anything whose result is a pure function of the
// instance), the assignment and score of every round are bitwise identical
// to a from-scratch rebuild-and-solve of the same round. The pillars:
//
//   - Edge exactness. An edge is stored with its travel time once (travel
//     and the radius test depend only on static locations; the radius test
//     is geo.InDisc, as in BuildCandidates). The rest of Definition 3's
//     predicate changes only at known times: slack only shrinks, so
//     travel > slack drops an edge permanently from some time on, and the
//     time gates (task created, worker arrived) can only switch an edge on.
//     Every task sits in a due schedule keyed by the earliest of its
//     deadline, its edges' drop times and its gated edges' gate times, and
//     the predicate is re-checked on all its edges when it comes due, so
//     the active edge set equals BuildCandidates' output exactly. Any flip
//     dirties both endpoints.
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
//     valid for as long as it is kept. The same marks bound Plan's patch:
//     a candidate list changes only for a dirty entity, an entity whose
//     position moved, or a neighbour of one that moved.
//   - Order preservation. Entity order mirrors the from-scratch engine's
//     (arrival order with order-preserving compaction, or ascending
//     external ID under OrderByID), candidate lists are ascending like
//     BuildCandidates', and carried groups replay in their original member
//     order, keeping every position-sensitive tie-break and float
//     summation order intact.
package incremental

import (
	"cmp"
	"context"
	"math"
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
	// Carry enables clean-component carry-forward: a component no change
	// touched replays its recorded groups instead of being re-solved.
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
	pos   int // index in Engine.workers; -1 once removed
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
	pos   int // index in Engine.tasks; -1 once removed
	t     model.Task
	adj   []tEdge
	dirty bool
	comp  *component
	seen  int
	due   float64 // nothing about the task or its edges changes before it
	slot  int     // index in Engine.sched; -1 while off the schedule
}

// tEdge is one candidate edge, stored on the task side. travel is computed
// once at discovery; active caches the verdict of the last check, which
// after BeginRound is gatesOpen at the current time (a gate opening makes
// the task due).
type tEdge struct {
	w      *workerState
	travel float64
	active bool
}

// component is one connected component of the active candidate graph. It
// lives from the Plan that builds it until a member turns dirty or is
// removed. Members are kept in ascending position order, which compaction
// and the ID order both preserve, so only part's positions need rewriting,
// and only when a member moved.
type component struct {
	workers []*workerState
	tasks   []*taskState
	part    partition.Component
	dead    bool // a member turned dirty or was removed
	moved   int  // the Plan generation that last rewrote part's positions
	// The carry record: group members as local worker indices, grouped by
	// local task index (task li's group is rec[recEnd[li-1]:recEnd[li]]),
	// in the order they were committed.
	rec      []int
	recEnd   []int
	recorded bool
	qhatOK   bool // the members' q̂ are valid (under Carry, across rounds)
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

	// maxRadius is the largest radius of a live worker, atMax the number
	// of live workers that have it.
	maxRadius float64
	atMax     int
	edgeCount int

	// sched is the due schedule: a binary min-heap of the live tasks by
	// taskState.due.
	sched []*taskState

	// lowW and lowT are the lowest worker and task positions that changed
	// since the last Plan; entities with a uid of planUID or more were
	// admitted since then.
	lowW, lowT int
	planUID    int

	dirtyW []*workerState
	dirtyT []*taskState

	// comps lists the live components in Round.Comps order; killed holds
	// the ones dropped since the last Plan, free the recycled ones.
	comps  []*component
	killed []*component
	free   []*component
	// solved lists the components Solve re-solved this round.
	solved []*component

	// arena is the engine-owned solver scratch, attached to every
	// per-component fork in Solve. Components are solved serially and each
	// arena-owned result is lifted into the round assignment before the
	// next component recycles the memory, so one arena serves the whole
	// engine lifetime — steady-state rounds allocate nothing in the
	// solver.
	arena *assign.Arena
	// block is the dense quality copy Solve hands an eligible re-solved
	// component; one buffer serves every component and round.
	block qualityBlock

	// in is the planned instance. Its entities and candidate lists persist
	// across rounds; Plan rewrites only what moved.
	in    model.Instance
	round Round
	work  roundWork

	// Per-round scratch, reused across rounds.
	searchBuf []int
	expired   []int
	popped    []*taskState
	tmpW      []*workerState
	tmpT      []*taskState
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

// roundWork counts the work of the last BeginRound and Plan: the edges
// BeginRound examined, the worker and task positions Plan rewrote, and
// the candidate lists it rewrote.
type roundWork struct {
	edges, workers, tasks, lists int
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
	// Non-nil even when empty: a nil WorkerCand reads as "not built".
	e.in.WorkerCand, e.in.TaskCand = [][]int{}, [][]int{}
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

// BeginRound advances the engine to timestamp now, which must not be
// earlier than the last round's. The tasks due by now come off the
// schedule: those past their deadline expire (same predicate as the
// from-scratch engine: a task survives only while Deadline > now), and the
// others re-check the exact validity predicate on every edge and go back
// on the schedule. No other task or edge can have changed. It returns the
// external IDs of the tasks expired this round, in entity order.
func (e *Engine) BeginRound(now float64) []int {
	e.now = now
	e.work.edges = 0
	if e.em != nil {
		e.em.rounds.Inc()
	}

	e.popped = e.popped[:0]
	first := len(e.tasks)
	for len(e.sched) > 0 && e.sched[0].due <= now {
		ts := e.sched[0]
		e.unschedule(ts)
		if ts.t.Deadline > now {
			e.popped = append(e.popped, ts)
			continue
		}
		first = min(first, ts.pos)
		ts.pos = -1
	}

	// Expiry sweep, order-preserving from the first expired position.
	e.expired = e.expired[:0]
	if first < len(e.tasks) {
		n := first
		for _, ts := range e.tasks[first:] {
			if ts.pos < 0 {
				e.expired = append(e.expired, ts.t.ID)
				e.work.edges += len(ts.adj)
				e.dropTask(ts)
				continue
			}
			ts.pos = n
			e.tasks[n] = ts
			n++
		}
		clear(e.tasks[n:])
		e.tasks = e.tasks[:n]
		e.lowT = min(e.lowT, first)
	}

	for _, ts := range e.popped {
		e.recheck(ts)
	}
	return e.expired
}

// recheck evaluates Definition 3 at the current time on every edge of ts,
// which came due and has not expired, and puts ts back on the schedule.
// The stored travel plus the live time terms reproduce the predicate
// exactly (the radius test is location-static and held at discovery).
func (e *Engine) recheck(ts *taskState) {
	now := e.now
	slack := ts.t.Deadline - now
	ts.due = expiryAt(ts.t.Deadline)
	for k := 0; k < len(ts.adj); {
		e.work.edges++
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
		if active := gatesOpen(ed.w, ts, now); active != ed.active {
			ed.active = active
			e.markWorkerDirty(ed.w)
			e.markTaskDirty(ts)
		}
		ts.due = min(ts.due, ts.edgeDue(ed))
		k++
	}
	if ts.due <= now {
		// An edge within rounding of its drop time: look again next round.
		ts.due = math.Nextafter(now, math.Inf(1))
	}
	e.schedule(ts)
}

// gatesOpen reports whether the time gates of the edge (ws, ts) are open
// at now: the task was created and the worker has arrived.
func gatesOpen(ws *workerState, ts *taskState, now float64) bool {
	return ts.t.Created <= now && ws.w.Arrive <= now
}

// expiryAt is the time from which a task with this deadline is expired:
// the first now at which Deadline > now fails.
func expiryAt(deadline float64) float64 {
	if math.IsNaN(deadline) {
		return math.Inf(-1)
	}
	return deadline
}

// edgeDue is the earliest time at which ed's validity can change: its drop
// time, or its gate time while it is inactive.
func (ts *taskState) edgeDue(ed *tEdge) float64 {
	at := dropAt(ts.t.Deadline, ed.travel)
	if !ed.active {
		at = min(at, gateAt(ts.t.Created, ed.w.w.Arrive))
	}
	return at
}

// dropAt is a time no later than the first now at which
// travel > deadline−now holds. It sits below deadline−travel by a margin
// far wider than that difference's rounding, so no now before it has
// deadline−now < travel, even rounded (rounding is monotone and travel is
// a float); at or after it, the exact test decides. An edge that can never
// drop (an infinite deadline, a NaN travel) gets +Inf.
func dropAt(deadline, travel float64) float64 {
	at := deadline - travel - (math.Abs(deadline)+math.Abs(travel))*0x1p-48
	if math.IsNaN(at) {
		return math.Inf(1)
	}
	return at
}

// gateAt is the first now at which Created <= now and Arrive <= now both
// hold, or +Inf if one is NaN and so never holds.
func gateAt(created, arrive float64) float64 {
	at := max(created, arrive)
	if math.IsNaN(at) {
		return math.Inf(1)
	}
	return at
}

// schedule puts ts on the due schedule at ts.due.
func (e *Engine) schedule(ts *taskState) {
	ts.slot = len(e.sched)
	e.sched = append(e.sched, ts)
	e.siftUp(ts.slot)
}

// lower brings ts's due time forward to at, if that is earlier.
func (e *Engine) lower(ts *taskState, at float64) {
	if at < ts.due {
		ts.due = at
		e.siftUp(ts.slot)
	}
}

// unschedule takes ts off the due schedule.
func (e *Engine) unschedule(ts *taskState) {
	i, last := ts.slot, len(e.sched)-1
	e.swap(i, last)
	e.sched[last] = nil
	e.sched = e.sched[:last]
	ts.slot = -1
	if i < last {
		e.siftDown(i)
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !(e.sched[i].due < e.sched[p].due) {
			return
		}
		e.swap(i, p)
		i = p
	}
}

func (e *Engine) siftDown(i int) {
	for {
		m := 2*i + 1
		if m >= len(e.sched) {
			return
		}
		if r := m + 1; r < len(e.sched) && e.sched[r].due < e.sched[m].due {
			m = r
		}
		if !(e.sched[m].due < e.sched[i].due) {
			return
		}
		e.swap(i, m)
		i = m
	}
}

func (e *Engine) swap(i, j int) {
	e.sched[i], e.sched[j] = e.sched[j], e.sched[i]
	e.sched[i].slot, e.sched[j].slot = i, j
}

// dropTask removes ts's edges, index entries and schedule slot (ts itself
// is compacted by the caller) and drops its component. Workers that were
// actively connected become dirty.
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
	if ts.slot >= 0 {
		e.unschedule(ts)
	}
	e.kill(ts.comp)
	e.tGrid.Delete(ts.t.Loc, ts.uid)
	delete(e.tByUID, ts.uid)
}

// dropWorker removes ws's edges and index entries; Commit has marked it
// and dropped its component. Tasks that were actively connected become
// dirty. A task's due time may now be early, which costs one spare
// recheck and nothing else.
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
	if ws.w.Radius == e.maxRadius {
		e.atMax--
	}
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

// widen counts a live worker's radius into maxRadius and atMax.
func (e *Engine) widen(radius float64) {
	switch {
	case radius > e.maxRadius:
		e.maxRadius, e.atMax = radius, 1
	case radius == e.maxRadius:
		e.atMax++
	}
}

// AddWorker admits a worker and discovers its candidate edges through the
// task index. Call between BeginRound and Plan.
func (e *Engine) AddWorker(w model.Worker) {
	ws := &workerState{uid: e.nextUID, pos: len(e.workers), w: w}
	e.nextUID++
	e.lowW = min(e.lowW, ws.pos)
	e.workers = append(e.workers, ws)
	e.wByUID[ws.uid] = ws
	e.wGrid.Insert(w.Loc, ws.uid)
	e.widen(w.Radius)
	e.markWorkerDirty(ws)

	// The grid decides the disc with geo.InDisc, as BuildCandidates does,
	// so only the travel and time terms remain to evaluate. The grid does
	// not hand its distances over, so the travel takes a second Hypot.
	e.searchBuf = e.tGrid.SearchCircle(w.Loc, w.Radius, e.searchBuf[:0])
	for _, uid := range e.searchBuf {
		ts := e.tByUID[uid]
		e.link(ws, ts, w.Loc.Dist(ts.t.Loc))
	}
}

// link discovers the edge (ws, ts), whose endpoints lie d apart, if it can
// ever be valid, appends it, and brings ts's due time forward to the
// edge's. Hypot is symmetric to the bit, so d may be measured either way.
func (e *Engine) link(ws *workerState, ts *taskState, d float64) {
	slack := ts.t.Deadline - e.now
	travel := geo.TravelTimeAt(d, ws.w.Speed)
	if travel > slack {
		// Already unreachable; slack only shrinks, so never add the edge.
		return
	}
	active := gatesOpen(ws, ts, e.now)
	if active {
		// The new endpoint is dirty already; the standing one's component
		// grows by the edge.
		e.markWorkerDirty(ws)
		e.markTaskDirty(ts)
	}
	ts.adj = append(ts.adj, tEdge{w: ws, travel: travel, active: active})
	ws.back = append(ws.back, ts)
	e.lower(ts, ts.edgeDue(&ts.adj[len(ts.adj)-1]))
	e.edgeCount++
	if e.em != nil {
		e.em.edgesAdded.Inc()
	}
}

// AddTask admits a task and discovers its candidate edges with a grid
// query at the largest live radius. Call between BeginRound and Plan.
func (e *Engine) AddTask(t model.Task) {
	ts := &taskState{uid: e.nextUID, pos: len(e.tasks), t: t, due: expiryAt(t.Deadline)}
	e.nextUID++
	e.lowT = min(e.lowT, ts.pos)
	e.tasks = append(e.tasks, ts)
	e.tByUID[ts.uid] = ts
	e.tGrid.Insert(t.Loc, ts.uid)
	e.schedule(ts)
	e.markTaskDirty(ts)

	e.searchBuf = e.wGrid.SearchCircle(t.Loc, e.maxRadius, e.searchBuf[:0])
	for _, uid := range e.searchBuf {
		ws := e.wByUID[uid]
		// The query ran at maxRadius, so it returns every worker whose
		// own disc holds the task, and some more; the disc test keeps the
		// former, and its distance gives the travel.
		d, in := geo.DistInDisc(t.Loc, ws.w.Loc, ws.w.Radius)
		if !in {
			continue
		}
		e.link(ws, ts, d)
	}
}

// Plan assembles the round: entity ordering, the instance (Quality left
// nil for the caller), candidate lists from the maintained adjacency, the
// component partition, and the per-component dirty classification. The
// instance and its lists persist across rounds: Plan rewrites entities
// only from the lowest worker and task positions that changed since the
// last Plan (the first Plan rewrites everything), and lists only where
// patchLists finds they can differ.
func (e *Engine) Plan() *Round {
	lowW, lowT := e.lowW, e.lowT
	if e.cfg.OrderByID {
		var p int
		p, e.tmpW = mergeByID(e.workers, e.tmpW, e.planUID,
			func(ws *workerState) int { return ws.uid }, func(ws *workerState) int { return ws.w.ID })
		lowW = min(lowW, p)
		p, e.tmpT = mergeByID(e.tasks, e.tmpT, e.planUID,
			func(ts *taskState) int { return ts.uid }, func(ts *taskState) int { return ts.t.ID })
		lowT = min(lowT, p)
	}

	e.in.B = e.cfg.B
	e.in.Now = e.now
	e.in.Quality = nil
	e.in.Workers = e.in.Workers[:lowW]
	for i, ws := range e.workers[lowW:] {
		ws.pos = lowW + i
		e.in.Workers = append(e.in.Workers, ws.w)
	}
	e.in.Tasks = e.in.Tasks[:lowT]
	for j, ts := range e.tasks[lowT:] {
		ts.pos = lowT + j
		e.in.Tasks = append(e.in.Tasks, ts.t)
	}
	e.in.WorkerCand = resizeLists(e.in.WorkerCand, len(e.workers))
	e.in.TaskCand = resizeLists(e.in.TaskCand, len(e.tasks))
	e.patchLists(lowW, lowT)
	e.work.workers, e.work.tasks = len(e.workers)-lowW, len(e.tasks)-lowT
	if e.em != nil {
		e.em.edges.Set(float64(e.edgeCount))
	}

	e.partition(lowW, lowT)
	comps := e.round.Comps[:0]
	dirty := e.round.Dirty[:0]
	for _, c := range e.comps {
		comps = append(comps, c.part)
		dirty = append(dirty, !e.cfg.Carry || !c.recorded)
		c.qhatOK = c.qhatOK && e.cfg.Carry
	}
	e.round = Round{In: &e.in, Comps: comps, Dirty: dirty}
	e.solved = e.solved[:0]
	e.lowW, e.lowT, e.planUID = len(e.workers), len(e.tasks), e.nextUID
	return &e.round
}

// mergeByID restores ascending external-ID order to s, whose entities
// admitted since the last Plan (uid >= planUID) sit in admission order
// after the sorted rest. It sorts them and merges them in from the first
// position they reach, and returns that position: s is unchanged below
// it. Ties keep the standing entity first.
func mergeByID[T any](s, tmp []T, planUID int, uid, id func(T) int) (int, []T) {
	add := len(s)
	for add > 0 && uid(s[add-1]) >= planUID {
		add--
	}
	tail := s[add:]
	if len(tail) == 0 {
		return len(s), tmp
	}
	slices.SortStableFunc(tail, func(a, b T) int { return cmp.Compare(id(a), id(b)) })
	first := id(tail[0])
	p := sort.Search(add, func(i int) bool { return id(s[i]) > first })
	// Merge tmp (the standing entities from p on) with the tail, front to
	// back; the write index never passes the tail's read index.
	tmp = append(tmp[:0], s[p:add]...)
	i, j, k := 0, add, p
	for i < len(tmp) && j < len(s) {
		if id(s[j]) < id(tmp[i]) {
			s[k] = s[j]
			j++
		} else {
			s[k] = tmp[i]
			i++
		}
		k++
	}
	copy(s[k:], tmp[i:])
	clear(tmp)
	return p, tmp[:0]
}

// resizeLists returns s with n lists, keeping the contents and capacity
// of every list, those past n included for when s grows again.
func resizeLists(s [][]int, n int) [][]int {
	if n > cap(s) {
		s = append(s[:cap(s)], make([][]int, n-cap(s))...)
	}
	return s[:n]
}

// patchLists rewrites every candidate list that can differ from the last
// Plan's. A list changes only when its entity's edges changed, which marks
// it dirty; when its entity moved, from lowW or lowT on; or when it holds
// the position of a neighbour that moved, which the moved entity's active
// edges reach. Every other list and every position in it is as it was.
func (e *Engine) patchLists(lowW, lowT int) {
	e.gen++
	e.work.lists = 0
	for _, ws := range e.workers[lowW:] {
		e.listWorker(ws)
		for _, ts := range ws.back {
			if gatesOpen(ws, ts, e.now) {
				e.listTask(ts)
			}
		}
	}
	for _, ts := range e.tasks[lowT:] {
		e.listTask(ts)
		for i := range ts.adj {
			if ts.adj[i].active {
				e.listWorker(ts.adj[i].w)
			}
		}
	}
	for _, ws := range e.dirtyW {
		if ws.pos >= 0 {
			e.listWorker(ws)
		}
	}
	for _, ts := range e.dirtyT {
		if ts.pos >= 0 {
			e.listTask(ts)
		}
	}
}

// listWorker rewrites ws's candidate list, once per patch: the positions of
// the tasks it has an active edge to, ascending as BuildCandidates lists
// them.
func (e *Engine) listWorker(ws *workerState) {
	if ws.seen == e.gen {
		return
	}
	ws.seen = e.gen
	e.work.lists++
	l := e.in.WorkerCand[ws.pos][:0]
	for _, ts := range ws.back {
		if gatesOpen(ws, ts, e.now) {
			l = append(l, ts.pos)
		}
	}
	slices.Sort(l)
	e.in.WorkerCand[ws.pos] = l
}

// listTask rewrites ts's candidate list, once per patch: the positions of
// the workers it has an active edge to, ascending.
func (e *Engine) listTask(ts *taskState) {
	if ts.seen == e.gen {
		return
	}
	ts.seen = e.gen
	e.work.lists++
	l := e.in.TaskCand[ts.pos][:0]
	for i := range ts.adj {
		if ts.adj[i].active {
			l = append(l, ts.adj[i].w.pos)
		}
	}
	slices.Sort(l)
	e.in.TaskCand[ts.pos] = l
}

// partition brings e.comps up to date with the planned instance, in
// partition.Components' order. A component with no dirty member and no
// removed one is unchanged (dirty completeness), so it is kept, with its
// member positions rewritten if one of them moved. Only the dirty entities
// and the members of dropped components seed new ones, and only what they
// reach is walked. Kept components stay in the order they had: Size is
// unchanged, and compaction and the ID order preserve the relative order
// of entities and with it that of the Keys.
func (e *Engine) partition(lowW, lowT int) {
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
	e.gen++
	for _, ws := range e.workers[lowW:] {
		e.reposition(ws.comp)
	}
	for _, ts := range e.tasks[lowT:] {
		e.reposition(ts.comp)
	}
	kept := e.comps[:0]
	for _, c := range e.comps {
		if !c.dead {
			kept = append(kept, c)
		}
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

// reposition rewrites the member positions of c (nil: none), a kept
// component with a member that moved, once per Plan.
func (e *Engine) reposition(c *component) {
	if c == nil || c.dead || c.moved == e.gen {
		return
	}
	c.moved = e.gen
	for li, ws := range c.workers {
		c.part.Workers[li] = ws.pos
	}
	for li, ts := range c.tasks {
		c.part.Tasks[li] = ts.pos
	}
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
// (over a dense quality block where that pays) and lifted back. The
// caller must have set Quality on the planned instance. For deterministic
// solvers the result is bitwise identical to solver.Solve on the full
// instance.
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
		blocked := false
		if n := len(sub.Workers); n <= blockCap && n*(n-1)/2 <= sub.CoCandidatePairs() {
			e.block.fill(sub.Quality, n)
			sub.Quality = &e.block
			blocked = true
		}
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
		sa, err := s.Solve(ctx, sub)
		if err != nil {
			return nil, err
		}
		if sa != nil {
			idx.Lift(sa, a)
		}
		if blocked && !c.qhatOK {
			// Set the q̂ of c's workers while the block is hot: the
			// sub-instance's position li is c.workers[li], and its
			// co-candidates are all in c, so q̂ over the block is q̂ over
			// the planned instance.
			e.qhat = e.qh.Dense(sub, e.block.q, e.qhat[:0])
			for li, ws := range c.workers {
				ws.qhat = e.qhat[li]
			}
			c.qhatOK = true
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

// blockCap is the most workers a component may have for Solve to copy its
// qualities into the dense block. At 512 the engine-held buffer peaks at
// 2 MiB and a fill at 262 144 base calls; the components of a churning
// population hold tens of workers, while a city-wide component (stream
// data has one of over 2 000 workers) would need over 30 MiB, held for
// the engine's lifetime, to save lookups its solve may never repeat.
const blockCap = 512

// qualityBlock is a dense n×n copy of a sub-instance's quality model:
// q[i*n+k] holds Quality(i, k), the diagonal included, with the model's
// exact bits, so a solve over the block is bitwise the solve over the
// model. Solve builds it for a component only when the n² base calls of
// the fill cannot exceed the Σ_t |TaskCand_t|(|TaskCand_t|−1) ordered
// pairs TPG's first stage-one sweep evaluates, and n is at most blockCap;
// each later lookup is one indexed load instead of a call through the
// sub-instance's and the caller's remaps.
type qualityBlock struct {
	n int
	q []float64
}

func (b *qualityBlock) Quality(i, k int) float64 { return b.q[i*b.n+k] }
func (b *qualityBlock) NumWorkers() int          { return b.n }

// fill copies every ordered pair of m's first n workers into the block.
func (b *qualityBlock) fill(m model.QualityModel, n int) {
	if cap(b.q) < n*n {
		b.q = make([]float64, n*n)
	}
	b.n, b.q = n, b.q[:n*n]
	for i := 0; i < n; i++ {
		row := b.q[i*n : (i+1)*n]
		for k := range row {
			row[k] = m.Quality(i, k)
		}
	}
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
// with Quality set. Solve has set the q̂ of the components it solved over
// the dense block, from the block; Upper walks the workers of the others
// whose q̂ is not yet known this round. Under Carry a worker's q̂ depends
// only on its component (its co-candidates are there, and qualities are a
// fixed function of external IDs), so it stays known for as long as the
// component is kept; the combine step is always whole.
func (e *Engine) Upper() float64 {
	e.qh.Reset(&e.in)
	for _, c := range e.comps {
		if c.qhatOK {
			continue
		}
		for li, ws := range c.workers {
			ws.qhat = e.qh.Of(c.part.Workers[li])
		}
		c.qhatOK = true
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
// planned instance). Neighbors of removed
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

	// Order-preserving compaction from the first removed position.
	if len(removeWorkers) > 0 {
		first := slices.Min(removeWorkers)
		n := first
		for _, ws := range e.workers[first:] {
			if ws.pos < 0 {
				e.dropWorker(ws)
				continue
			}
			ws.pos = n
			e.workers[n] = ws
			n++
		}
		clear(e.workers[n:])
		e.workers = e.workers[:n]
		e.lowW = min(e.lowW, first)
		if e.atMax == 0 && e.maxRadius > 0 {
			// The last of the widest workers left: find the largest
			// radius again, so AddTask's query shrinks with it.
			e.maxRadius = 0
			for _, ws := range e.workers {
				e.widen(ws.w.Radius)
			}
		}
	}
	if len(removeTasks) > 0 {
		first := slices.Min(removeTasks)
		n := first
		for _, ts := range e.tasks[first:] {
			if ts.pos < 0 {
				e.dropTask(ts)
				continue
			}
			ts.pos = n
			e.tasks[n] = ts
			n++
		}
		clear(e.tasks[n:])
		e.tasks = e.tasks[:n]
		e.lowT = min(e.lowT, first)
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
