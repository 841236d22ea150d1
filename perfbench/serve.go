package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/server"
	"casc/internal/stats"
)

const serveHTTPName = "serve-http"

// serve-http load: a fixed worker population registered during set-up, an
// open-loop schedule of one POST /batch per tick plus Poisson task posts and
// the ratings of the previous tick's dispatches spread across the tick.
const (
	serveWorkers      = 2000
	serveTasksPerTick = 150
	serveTick         = 100 * time.Millisecond
	serveWarmTicks    = 10
	serveSetups       = 9
	serveMinTicks     = 200
)

// Request kinds of the load generator.
const (
	reqWorker = iota
	reqTask
	reqBatch
	reqRating
)

var routeOf = [...]string{"/workers", "/tasks", "/batch", "/ratings"}

// event is one request the generator made and what came back.
type event struct {
	kind           int
	due, sent, end time.Time
	svc            time.Duration // thread CPU time from request to response
	status         int
	id             int // ID returned by /workers and /tasks
	worker         server.WorkerRequest
	task           server.TaskRequest
	rating         server.RatingRequest
	batch          server.BatchResponse
	timed, traced  bool
	availAfter     int // Platform.Status after a traced batch
	openAfter      int
	decodeErr      error
}

// serveInput is the precomputed load of one run.
type serveInput struct {
	workers []server.WorkerRequest
	posts   [][]server.TaskRequest // per tick
	hidden  coop.Synthetic         // the requesters' hidden rating model
}

func serveFeed(seed int64, ticks int) *serveInput {
	rng := stats.NewRNG(seed)
	in := &serveInput{hidden: coop.Synthetic{N: serveWorkers, Seed: uint64(seed) ^ 0x5eed}}
	for i := 0; i < serveWorkers; i++ {
		w := paperWorker(rng, i, 0)
		in.workers = append(in.workers, server.WorkerRequest{X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed, Radius: w.Radius})
	}
	for k := 0; k < ticks; k++ {
		// Tasks of tick k are posted after the tick's batch, when the
		// platform clock (its batch count) reads k+1.
		var ps []server.TaskRequest
		for i := stats.Poisson(rng, serveTasksPerTick); i > 0; i-- {
			ps = append(ps, server.TaskRequest{X: rng.Float64(), Y: rng.Float64(), Capacity: paperCapacity, Deadline: float64(k+1) + paperTau})
		}
		in.posts = append(in.posts, ps)
	}
	return in
}

// loadgen is the single generator goroutine: it walks the schedule,
// serving every request in process through the platform's handler.
type loadgen struct {
	in      *serveInput
	p       *server.Platform
	h       http.Handler
	log     []event
	tr      *tracer
	prev    []server.RatingRequest // ratings owed for the previous batch
	t0      time.Time
	paced   bool
	timed   bool
	traced  bool
	tickOff int // ticks made before the paced phase
}

func (g *loadgen) do(ev event, body any) event {
	buf, _ := json.Marshal(body) // plain structs of numbers always marshal
	if g.paced {
		waitUntil(ev.due)
	}
	c0 := cpuNow()
	req := httptest.NewRequest(http.MethodPost, routeOf[ev.kind], bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	ev.sent = time.Now()
	g.h.ServeHTTP(rec, req)
	ev.end = time.Now()
	ev.svc = cpuNow() - c0
	if !g.paced {
		ev.due = ev.sent
	}
	ev.status = rec.Code
	ev.timed, ev.traced = g.timed, g.traced
	id := len(g.log)
	g.tr.add(id, "POST "+routeOf[ev.kind], "", ev.due, ev.end)
	g.tr.add(id, "server.ServeHTTP", "POST "+routeOf[ev.kind], ev.sent, ev.end)
	if rec.Code/100 == 2 {
		switch ev.kind {
		case reqWorker, reqTask:
			var out struct{ ID int }
			ev.decodeErr = json.Unmarshal(rec.Body.Bytes(), &out)
			ev.id = out.ID
		case reqBatch:
			ev.decodeErr = json.Unmarshal(rec.Body.Bytes(), &ev.batch)
		}
	}
	g.log = append(g.log, ev)
	return ev
}

// waitUntil sleeps to within a millisecond of t, then spins, so a request
// leaves on time rather than at the timer's resolution.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
	}
}

// tick runs tick k: the batch at its start, then the ratings owed for the
// previous batch and the tick's task posts, interleaved evenly over it.
func (g *loadgen) tick(k int) {
	start := g.t0.Add(time.Duration(k-g.tickOff) * serveTick)
	b := g.do(event{kind: reqBatch, due: start}, server.BatchRequest{})
	if g.traced {
		st := g.p.Status()
		g.log[len(g.log)-1].availAfter, g.log[len(g.log)-1].openAfter = st.AvailableWorkers, st.OpenTasks
	}
	ratings := g.prev
	g.prev = g.ratingsFor(b)

	posts := g.in.posts[k]
	nr, np := len(ratings), len(posts)
	i, j := 0, 0
	for i < nr || j < np {
		fr, fp := math.Inf(1), math.Inf(1)
		if i < nr {
			fr = (float64(i) + 0.5) / float64(nr)
		}
		if j < np {
			fp = (float64(j) + 0.5) / float64(np)
		}
		if fr <= fp {
			g.do(event{kind: reqRating, due: start.Add(time.Duration(fr * float64(serveTick))), rating: ratings[i]}, ratings[i])
			i++
		} else {
			ev := event{kind: reqTask, due: start.Add(time.Duration(fp * float64(serveTick))), task: posts[j]}
			g.do(ev, posts[j])
			j++
		}
	}
}

// ratingsFor derives the ratings of a batch's dispatched groups from the
// hidden model: the mean hidden quality over the group's worker pairs.
func (g *loadgen) ratingsFor(b event) []server.RatingRequest {
	var out []server.RatingRequest
	for _, grp := range groups(b.batch.Pairs) {
		sum, n := 0.0, 0
		for x := 0; x < len(grp.workers); x++ {
			for y := x + 1; y < len(grp.workers); y++ {
				sum += g.in.hidden.Quality(grp.workers[x], grp.workers[y])
				n++
			}
		}
		out = append(out, server.RatingRequest{TaskID: grp.task, Score: sum / float64(max(n, 1))})
	}
	return out
}

type group struct {
	task    int
	workers []int
}

// groups splits a batch's pairs (sorted by task, then worker) by task.
func groups(pairs []server.PairJSON) []group {
	var out []group
	for _, p := range pairs {
		if len(out) == 0 || out[len(out)-1].task != p.Task {
			out = append(out, group{task: p.Task})
		}
		out[len(out)-1].workers = append(out[len(out)-1].workers, p.Worker)
	}
	return out
}

// setUp builds a platform, registers the worker population and runs the
// warm-up ticks unpaced. It returns the set-up time on the thread CPU clock.
func setUp(in *serveInput) (*loadgen, time.Duration, error) {
	start := cpuNow()
	p, err := server.NewPlatform(server.Config{B: paperB})
	if err != nil {
		return nil, 0, err
	}
	g := &loadgen{in: in, p: p, h: p.Handler()}
	for _, w := range in.workers {
		g.do(event{kind: reqWorker, worker: w}, w)
	}
	for k := 0; k < serveWarmTicks; k++ {
		g.tick(k)
	}
	return g, cpuNow() - start, nil
}

func runServeHTTP(opt options) (*report, error) {
	rep := &report{}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ticks := opt.timed
	if ticks == 0 {
		ticks = max(serveMinTicks, opt.seconds*int(time.Second/serveTick))
	}
	in := serveFeed(opt.seed, serveWarmTicks+ticks)

	var setups []float64
	var g *loadgen
	for i := 0; i < serveSetups; i++ {
		if g != nil {
			rep.attempted += len(g.log)
			verify(g, rep)
		}
		var d time.Duration
		var err error
		if g, d, err = setUp(in); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()

	tracedFrom := serveWarmTicks + ticks + 1
	if opt.trace {
		g.tr = newTracer()
		tracedFrom = serveWarmTicks + ticks/4
	}
	var mem memWindow
	var h0, h1 metrics.HistogramSnapshot
	var c0, c1 gtCounters
	g.paced, g.timed, g.tickOff = true, true, serveWarmTicks
	g.t0 = time.Now().Add(time.Millisecond)
	for k := serveWarmTicks; k < serveWarmTicks+ticks; k++ {
		if k == tracedFrom {
			g.traced, g.tr.on = true, true
			mem.begin()
			h0, c0 = readPlatform(g.p)
		}
		g.tick(k)
	}
	mem.stop()
	h1, c1 = readPlatform(g.p)
	held := heldMB() // g, and with it the platform, is still live

	rep.attempted += len(g.log)
	verify(g, rep)

	var rounds, ingest, dispatch, late, base, traced []float64
	var tasksSvc, ratingsSvc, batchSvc, pairs, avail, open []float64
	// The end-to-end times replay the log as the open-loop queue it is — one
	// server taking requests in order, each at its due time or when the one
	// before it is done — with each request's service time read on the
	// thread CPU clock. The traced run's figures stay on the wall clock.
	var vFree time.Duration
	var wallRounds []float64
	postDue := map[int]time.Duration{}
	dispatched, expired := 0, 0
	score := 0.0
	for _, ev := range g.log {
		if !ev.timed {
			continue
		}
		due := ev.due.Sub(g.t0)
		vFree = max(vFree, due) + ev.svc
		lat := ms(vFree - due)
		wlat := ms(ev.end.Sub(ev.due))
		svc := ms(ev.end.Sub(ev.sent))
		if ev.traced {
			late = append(late, ms(ev.sent.Sub(ev.due)))
		}
		switch ev.kind {
		case reqTask:
			ingest = append(ingest, lat)
			postDue[ev.id] = due
			if ev.traced {
				tasksSvc = append(tasksSvc, svc)
			}
		case reqRating:
			ingest = append(ingest, lat)
			if ev.traced {
				ratingsSvc = append(ratingsSvc, svc)
			}
		case reqBatch:
			rounds = append(rounds, lat)
			wallRounds = append(wallRounds, wlat)
			dispatched += ev.batch.DispatchedTasks
			expired += ev.batch.ExpiredTasks
			score += ev.batch.Score
			for _, grp := range groups(ev.batch.Pairs) {
				if due, ok := postDue[grp.task]; ok {
					dispatch = append(dispatch, ms(vFree-due))
				}
			}
			if ev.traced {
				traced = append(traced, wlat)
				batchSvc = append(batchSvc, svc)
				pairs = append(pairs, float64(len(ev.batch.Pairs)))
				avail = append(avail, float64(ev.availAfter))
				open = append(open, float64(ev.openAfter))
			} else {
				base = append(base, wlat)
			}
		}
	}
	rep.note("workload %s: %d workers, %d warm-up + %d timed ticks of %v, %d set-ups", serveHTTPName, serveWorkers, serveWarmTicks, ticks, serveTick, serveSetups)
	rep.note("offered load: %.0f task posts/s (Poisson %d per tick), %.0f ratings/s, %.0f batches/s, open loop, one generator goroutine",
		float64(len(postDue))/(float64(ticks)*serveTick.Seconds()), serveTasksPerTick,
		float64(len(ingest)-len(postDue))/(float64(ticks)*serveTick.Seconds()), 1/serveTick.Seconds())

	if !opt.trace {
		rep.note("wall clock: batch p50 %.3f ms, p95 %.3f ms", median(wallRounds), quantile(wallRounds, 0.95))
		rep.add("setup_s", median(setups), "s", len(setups))
		rep.add("round_ms_p50", quantile(rounds, 0.50), "ms", len(rounds))
		rep.add("round_ms_p95", quantile(rounds, 0.95), "ms", len(rounds))
		rep.add("dispatch_ms_p50", quantile(dispatch, 0.50), "ms", len(dispatch))
		rep.add("dispatch_ms_p95", quantile(dispatch, 0.95), "ms", len(dispatch))
		rep.add("ingest_ms_p50", quantile(ingest, 0.50), "ms", len(ingest))
		rep.add("ingest_ms_p99", quantile(ingest, 0.99), "ms", len(ingest))
		rep.add("dispatched_ratio", float64(dispatched)/float64(max(dispatched+expired, 1)), "ratio", dispatched+expired)
		rep.add("score_per_task", score/float64(max(dispatched, 1)), "quality", dispatched)
		rep.add("mem_held_mb", held, "MB", 1)
		rep.note("error_ratio %.6f (%d failed of %d attempted)", float64(len(rep.failures))/float64(max(rep.attempted, 1)), len(rep.failures), rep.attempted)
		return rep, nil
	}

	hd := deltaHistogram(h0, h1)
	c := gtCounters{c1.bestResponses - c0.bestResponses, c1.swaps - c0.swaps, c1.arenaGrows - c0.arenaGrows}
	l := &layers{solveHist: &hd, gt: c, units: len(traced), mem: &mem, late: late, traced: traced, base: base,
		tasksSvc: tasksSvc, ratingsSvc: ratingsSvc, batchSvc: batchSvc, pairsPerBatch: pairs, avail: avail, open: open}
	l.add(rep)
	rep.note("solve times come from the platform's %s histogram, interpolated within its buckets", assign.MetricSolveSeconds)
	if path, err := g.tr.write(opt.spanDir, fmt.Sprintf("%s-seed%d.jsonl", serveHTTPName, opt.seed)); err == nil {
		rep.note("spans: %d written to %s", len(g.tr.spans), path)
	} else {
		rep.note("spans not written: %v", err)
	}
	return rep, nil
}

// readPlatform reads the platform's solve-time histogram and GT counters.
func readPlatform(p *server.Platform) (metrics.HistogramSnapshot, gtCounters) {
	snap := p.Metrics().Snapshot()
	lbl := metrics.L("solver", "GT+ALL")
	h, _ := snap.Histogram(assign.MetricSolveSeconds, lbl)
	br, _ := snap.Counter(assign.MetricGTBestResponses, lbl)
	sw, _ := snap.Counter(assign.MetricGTSwaps, lbl)
	ag, _ := snap.Counter(assign.MetricArenaGrows, lbl)
	return h, gtCounters{br, sw, ag}
}

// deltaHistogram returns the observations h1 holds beyond h0.
func deltaHistogram(h0, h1 metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{Count: h1.Count - h0.Count, Sum: h1.Sum - h0.Sum}
	for i, b := range h1.Buckets {
		if i < len(h0.Buckets) {
			b.Count -= h0.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, b)
	}
	return d
}

// refWorker and refGroup are the reference model's view of a worker and
// of a dispatched task's group.
type refWorker struct {
	w    model.Worker
	free bool
}

type refGroup struct {
	workers []int
	loc     geo.Point
}

// refModel is a small reference model of the platform's state, advanced by
// the request log.
type refModel struct {
	workers    map[int]*refWorker
	open       map[int]model.Task
	dispatched map[int]refGroup
	rated      map[int]bool
	hist       *coop.History
	clock      float64
}

// verify replays g's request log through the reference model: IDs come
// back in sequence, every request succeeds, every dispatched group has
// B..capacity distinct registered, free workers that can validly serve its
// open, never-dispatched task, the expired count matches the deadlines,
// every rating lands, each batch score equals the Equation 2 sum over a
// mirrored Equation 1 history, and the final Status agrees.
func verify(g *loadgen, rep *report) {
	m := &refModel{
		workers:    map[int]*refWorker{},
		open:       map[int]model.Task{},
		dispatched: map[int]refGroup{},
		rated:      map[int]bool{},
		hist:       coop.NewHistory(0, 0.5, 0.5),
	}
	for i, ev := range g.log {
		if ev.status/100 != 2 || ev.decodeErr != nil {
			rep.fail("request %d (%s): status %d, decode error %v", i, routeOf[ev.kind], ev.status, ev.decodeErr)
			continue
		}
		switch ev.kind {
		case reqWorker:
			if ev.id != len(m.workers) {
				rep.fail("request %d: worker ID %d, want %d", i, ev.id, len(m.workers))
			}
			m.hist.Grow(ev.id + 1)
			m.workers[ev.id] = &refWorker{w: model.Worker{ID: ev.id, Loc: geo.Pt(ev.worker.X, ev.worker.Y),
				Speed: ev.worker.Speed, Radius: ev.worker.Radius, Arrive: m.clock}, free: true}
		case reqTask:
			if _, dup := m.open[ev.id]; dup || m.dispatched[ev.id].workers != nil {
				rep.fail("request %d: task ID %d reused", i, ev.id)
			}
			m.open[ev.id] = model.Task{ID: ev.id, Loc: geo.Pt(ev.task.X, ev.task.Y), Capacity: ev.task.Capacity,
				Created: m.clock, Deadline: ev.task.Deadline}
		case reqRating:
			grp, ok := m.dispatched[ev.rating.TaskID]
			if !ok || m.rated[ev.rating.TaskID] {
				rep.fail("request %d: rating for task %d accepted but not owed", i, ev.rating.TaskID)
				continue
			}
			m.rated[ev.rating.TaskID] = true
			m.hist.RecordGroup(grp.workers, ev.rating.Score)
			for _, id := range grp.workers {
				w := m.workers[id]
				w.free, w.w.Loc, w.w.Arrive = true, grp.loc, m.clock
			}
		case reqBatch:
			m.batch(i, ev.batch, rep)
			m.clock++
		}
	}
	st := g.p.Status()
	free := 0
	for _, w := range m.workers {
		if w.free {
			free++
		}
	}
	if st.AvailableWorkers != free || st.OpenTasks != len(m.open) {
		rep.fail("final status %d workers / %d tasks, reference model %d / %d", st.AvailableWorkers, st.OpenTasks, free, len(m.open))
	}
}

// batch checks one /batch response against the model and applies it.
func (m *refModel) batch(i int, b server.BatchResponse, rep *report) {
	expired := 0
	for id, t := range m.open {
		if t.Deadline <= m.clock {
			delete(m.open, id)
			expired++
		}
	}
	if expired != b.ExpiredTasks {
		rep.fail("request %d: %d tasks expired, reference model %d", i, b.ExpiredTasks, expired)
	}
	gs := groups(b.Pairs)
	if len(gs) != b.DispatchedTasks {
		rep.fail("request %d: %d dispatched tasks but %d groups", i, b.DispatchedTasks, len(gs))
	}
	score := 0.0
	for _, grp := range gs {
		t, ok := m.open[grp.task]
		if !ok {
			rep.fail("request %d: task %d dispatched but not open", i, grp.task)
			continue
		}
		if n := len(grp.workers); n < paperB || n > t.Capacity {
			rep.fail("request %d: task %d got %d workers, want %d..%d", i, grp.task, n, paperB, t.Capacity)
		}
		for x, id := range grp.workers {
			w := m.workers[id]
			switch {
			case x > 0 && id <= grp.workers[x-1]:
				rep.fail("request %d: task %d lists worker %d twice or out of order", i, grp.task, id)
			case w == nil || !w.free:
				rep.fail("request %d: task %d got worker %d, not registered and free", i, grp.task, id)
			case !model.Valid(w.w, t, m.clock):
				rep.fail("request %d: worker %d cannot validly serve task %d", i, id, grp.task)
			default:
				w.free = false
			}
		}
		denom := min(len(grp.workers), t.Capacity) - 1
		sum := 0.0
		for _, a := range grp.workers {
			for _, c := range grp.workers {
				if a != c {
					sum += m.hist.Quality(a, c)
				}
			}
		}
		score += sum / float64(max(denom, 1))
		delete(m.open, grp.task)
		m.dispatched[grp.task] = refGroup{workers: grp.workers, loc: t.Loc}
	}
	if math.Abs(score-b.Score) > 1e-9*math.Max(1, math.Abs(score)) {
		rep.fail("request %d: batch score %v, reference model %v", i, b.Score, score)
	}
}
