package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"casc/internal/assign"
	"casc/internal/batch"
	"casc/internal/coop"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/partition"
)

// feed is a batch workload's input, generated from the seed before any
// timing starts: per-round worker and task arrivals and the cooperation
// model over every worker ID. The program sees only these values.
type feed struct {
	workers [][]model.Worker
	tasks   [][]model.Task
	quality coop.Synthetic
	// taskRound and taskPos locate a task ID: its arrival round and its
	// position among that round's arrivals.
	taskRound []int
	taskPos   []int
}

// index fills taskRound and taskPos; task IDs must be dense from 0.
func (f *feed) index() {
	for r, ts := range f.tasks {
		for i, t := range ts {
			for len(f.taskRound) <= t.ID {
				f.taskRound = append(f.taskRound, -1)
				f.taskPos = append(f.taskPos, -1)
			}
			f.taskRound[t.ID], f.taskPos[t.ID] = r, i
		}
	}
}

// batchSpec describes one batch workload: its input generator, how the
// batch engine is configured, and how many rounds it warms up and times.
type batchSpec struct {
	name string
	// feed generates the arrivals of rounds [0, rounds).
	feed func(seed int64, rounds int) *feed
	// configure fills the engine settings other than Solver and Observer.
	configure func(cfg *batch.Config)
	// incremental marks the persistent-engine path (batch.Config.Incremental).
	incremental bool
	// warm is the number of warm-up rounds charged to setup_s.
	warm int
	// roundsPerSec converts --seconds into a fixed timed-round count, so the
	// work of a run, and with it every score, depends only on the seed.
	roundsPerSec float64
	// setups is how many times a run builds the program's state and warms
	// it up; setup_s is the median.
	setups int
}

// timedRounds is the number of timed rounds a run makes: opt.timed when
// set, else the run length times the nominal rate, and at least 200, so
// round_ms_p95 has ten samples beyond it.
func (s *batchSpec) timedRounds(opt options) int {
	if opt.timed > 0 {
		return opt.timed
	}
	return max(200, int(math.Round(float64(opt.seconds)*s.roundsPerSec)))
}

// roundRec is what the benchmark observed of one round from outside.
type roundRec struct {
	start, end time.Time // Source.WorkersAt call, Observer callback (wall)
	// The same two moments and the first Solver call, on the thread CPU
	// clock the end-to-end metrics use.
	cpuStart, cpuEnd, cpuSolve time.Duration
	solve                      time.Duration
	solves                     int
	q0, qCalls                 int64 // quality-call counter at round start, calls in round

	noop       bool
	score      float64 // recomputed with GroupQuality from the assignment
	dispatched []int   // task IDs dispatched this round
	pool       int
	pending    int
	pairs      int
	components int
	largest    int
}

// gtSolver is the method set the incremental engine probes for: a timing
// wrapper must forward all of it or the engine takes another path.
type gtSolver interface {
	assign.Solver
	assign.Forker
	assign.ArenaHolder
	assign.WarmStarter
}

// timedSolver times every Solve call on behalf of the benchmark and
// forwards forks, arenas and warm starts, so the program behaves exactly as
// it would with the bare solver.
type timedSolver struct {
	inner gtSolver
	run   *batchRun
}

func (s *timedSolver) Name() string { return s.inner.Name() }

func (s *timedSolver) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	t0 := s.run.solving()
	a, err := s.inner.Solve(ctx, in)
	s.run.solved(t0, time.Now())
	return a, err
}

func (s *timedSolver) SolveWarm(ctx context.Context, in *model.Instance, w *assign.Warm) (*model.Assignment, error) {
	t0 := s.run.solving()
	a, err := s.inner.SolveWarm(ctx, in, w)
	s.run.solved(t0, time.Now())
	return a, err
}

func (s *timedSolver) SetArena(ar *assign.Arena) { s.inner.SetArena(ar) }

func (s *timedSolver) Fork(seed int64) assign.Solver {
	return &timedSolver{inner: s.inner.Fork(seed).(gtSolver), run: s.run}
}

// countingQuality counts cooperation-quality lookups. The batch engine
// solves on one goroutine, so a plain counter suffices.
type countingQuality struct {
	base  model.QualityModel
	calls int64
}

func (c *countingQuality) Quality(i, k int) float64 { c.calls++; return c.base.Quality(i, k) }
func (c *countingQuality) NumWorkers() int          { return c.base.NumWorkers() }

// batchRun is one batch.Run call driven by the benchmark: it is the
// program's Source and Observer and owns the timing solver wrapper.
type batchRun struct {
	spec *batchSpec
	f    *feed
	// Rounds [timedFrom, rounds) are timed; from tracedFrom on, spans and
	// the re-timed layer calls are recorded.
	timedFrom, tracedFrom, rounds int

	recs []roundRec
	cur  int
	tr   *tracer
	q    *countingQuality
	reg  *metrics.Registry

	cpuStart time.Duration // thread CPU clock when batch.Run was called
	setup    time.Duration // set-up time on that clock
	mem      memWindow
	held     float64
	gtStart  gtCounters
	gtEnd    gtCounters
	rep      *report
}

func (b *batchRun) WorkersAt(r int) []model.Worker {
	t := time.Now()
	b.cur = r
	rec := &b.recs[r]
	rec.start = t
	rec.cpuStart = cpuNow()
	if b.q != nil {
		rec.q0 = b.q.calls
	}
	ws := b.f.workers[r]
	b.tr.add(r, "source.workers", "round", t, time.Now())
	return ws
}

func (b *batchRun) TasksAt(r int) []model.Task {
	t := time.Now()
	ts := b.f.tasks[r]
	b.tr.add(r, "source.tasks", "round", t, time.Now())
	return ts
}

func (b *batchRun) Quality() model.QualityModel {
	if b.q != nil {
		return b.q
	}
	return b.f.quality
}

// solving marks a Solver call's start: the round's first one also reads the
// thread CPU clock, for ingest latency.
func (b *batchRun) solving() time.Time {
	if rec := &b.recs[b.cur]; rec.solves == 0 {
		rec.cpuSolve = cpuNow()
	}
	return time.Now()
}

func (b *batchRun) solved(t0, t1 time.Time) {
	rec := &b.recs[b.cur]
	rec.solves++
	rec.solve += t1.Sub(t0)
	b.tr.add(b.cur, "assign.solve", "round", t0, t1)
}

// observe is the batch.Config.Observer: the round ends when it is called.
func (b *batchRun) observe(_ context.Context, r int, _ float64, in *model.Instance, a *model.Assignment) error {
	t := time.Now()
	rec := &b.recs[r]
	rec.end = t
	rec.cpuEnd = cpuNow()
	if b.q != nil {
		rec.qCalls = b.q.calls - rec.q0
	}
	b.tr.add(r, "round", "", rec.start, t)
	if in == nil {
		rec.noop = true
	} else {
		for ti, ws := range a.TaskWorkers {
			if len(ws) < in.B {
				continue
			}
			rec.score += in.GroupQuality(ws, in.Tasks[ti].Capacity)
			rec.dispatched = append(rec.dispatched, in.Tasks[ti].ID)
		}
		rec.pool, rec.pending, rec.pairs = len(in.Workers), len(in.Tasks), in.NumValidPairs()
		if b.tr != nil && b.tr.on {
			b.retime(r, t, in, a)
		}
	}
	if r == b.timedFrom-1 {
		b.setup = rec.cpuEnd - b.cpuStart
		runtime.GC()
	}
	if b.tr != nil && r == b.tracedFrom-1 {
		b.tr.on = true
		b.gtStart = readGT(b.reg)
		b.mem.begin()
	}
	if r == b.rounds-1 {
		b.mem.stop()
		b.gtEnd = readGT(b.reg)
		b.held = heldMB()
	}
	return nil
}

// retime repeats the layer calls whose cost the round hides — UPPER,
// Validate, candidate building and partitioning — on the observed round,
// recording one span each, and cross-checks the candidate lists.
func (b *batchRun) retime(r int, obs time.Time, in *model.Instance, a *model.Assignment) {
	rec := &b.recs[r]
	t0 := time.Now()
	_ = assign.Upper(in)
	t1 := time.Now()
	b.tr.add(r, "assign.upper", "observe", t0, t1)

	err := a.Validate(in)
	t2 := time.Now()
	b.tr.add(r, "model.validate", "observe", t1, t2)
	if err != nil {
		b.rep.fail("round %d: assignment invalid: %v", r, err)
	}

	cp := model.Instance{Workers: in.Workers, Tasks: in.Tasks, B: in.B, Now: in.Now, Travel: in.Travel}
	cp.BuildCandidates(model.IndexRTree)
	t3 := time.Now()
	b.tr.add(r, "model.candidates", "observe", t2, t3)
	if !sameLists(cp.WorkerCand, in.WorkerCand) || !sameLists(cp.TaskCand, in.TaskCand) {
		b.rep.fail("round %d: candidate lists differ from a fresh BuildCandidates", r)
	}

	comps := partition.Components(in)
	t4 := time.Now()
	b.tr.add(r, "partition.components", "observe", t3, t4)
	rec.components = len(comps)
	if len(comps) > 0 {
		rec.largest = comps[0].Size()
	}
	b.tr.add(r, "observe", "", obs, time.Now())
}

func sameLists(x, y [][]int) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if len(x[i]) != len(y[i]) {
			return false
		}
		for j := range x[i] {
			if x[i][j] != y[i][j] {
				return false
			}
		}
	}
	return true
}

// gtCounters are the solver-layer counters read from the GT registry.
type gtCounters struct{ bestResponses, swaps, arenaGrows uint64 }

func readGT(reg *metrics.Registry) gtCounters {
	if reg == nil {
		return gtCounters{}
	}
	snap := reg.Snapshot()
	lbl := metrics.L("solver", "GT")
	br, _ := snap.Counter(assign.MetricGTBestResponses, lbl)
	sw, _ := snap.Counter(assign.MetricGTSwaps, lbl)
	ag, _ := snap.Counter(assign.MetricArenaGrows, lbl)
	return gtCounters{br, sw, ag}
}

// execute runs batch.Run over rounds [0, rounds) and returns its result.
func (b *batchRun) execute(ctx context.Context) (*batch.Result, error) {
	b.recs = make([]roundRec, b.rounds)
	gt := assign.NewGT(assign.GTOptions{})
	gt.Metrics = b.reg // forks inherit the registry
	cfg := batch.Config{
		Solver:      &timedSolver{inner: gt, run: b},
		Rounds:      b.rounds,
		Observer:    b.observe,
		Incremental: b.spec.incremental,
	}
	b.spec.configure(&cfg)
	b.cpuStart = cpuNow()
	return batch.Run(ctx, cfg, b)
}

// check compares what the benchmark recomputed with what the program
// reported: every round's score bit for bit, its dispatch count, and the
// run's expired-task total against the deadlines of the undispatched tasks.
func (b *batchRun) check(res *batch.Result) (expiredAt []int) {
	if len(res.Batches) != b.rounds {
		b.rep.fail("run stopped after %d of %d rounds", len(res.Batches), b.rounds)
		return nil
	}
	dispatchedRound := make([]int, len(b.f.taskRound))
	for i := range dispatchedRound {
		dispatchedRound[i] = -1
	}
	for r, bs := range res.Batches {
		rec := &b.recs[r]
		if math.Float64bits(bs.Score) != math.Float64bits(rec.score) {
			b.rep.fail("round %d: BatchStats.Score %v, recomputed %v", r, bs.Score, rec.score)
		}
		if bs.DispatchedTasks != len(rec.dispatched) {
			b.rep.fail("round %d: BatchStats.DispatchedTasks %d, observed %d", r, bs.DispatchedTasks, len(rec.dispatched))
		}
		for _, id := range rec.dispatched {
			if dispatchedRound[id] >= 0 {
				b.rep.fail("round %d: task %d dispatched again (first in round %d)", r, id, dispatchedRound[id])
			}
			dispatchedRound[id] = r
		}
	}
	// A pending task is dropped at the first round whose time reaches its
	// deadline (rounds are one time unit apart).
	expiredAt = make([]int, b.rounds)
	total := 0
	for _, ts := range b.f.tasks[:b.rounds] {
		for _, t := range ts {
			if dispatchedRound[t.ID] >= 0 {
				continue
			}
			if er := int(math.Ceil(t.Deadline)); er < b.rounds {
				expiredAt[er]++
				total++
			}
		}
	}
	if total != res.ExpiredTasks {
		b.rep.fail("Result.ExpiredTasks %d, deadlines imply %d", res.ExpiredTasks, total)
	}
	return expiredAt
}

// runBatchWorkload is the whole measurement of one batch workload: the
// repeated set-ups, the timed run, the output checks, and the metrics of
// the requested mode.
func runBatchWorkload(spec *batchSpec, opt options) (*report, error) {
	rep := &report{}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := spec.timedRounds(opt)
	total := spec.warm + n
	f := spec.feed(opt.seed, total)

	var setups []float64
	for i := 0; i < spec.setups-1; i++ {
		b := &batchRun{spec: spec, f: f, rounds: spec.warm, rep: rep}
		b.timedFrom, b.tracedFrom = spec.warm, spec.warm+1
		res, err := b.execute(context.Background())
		rep.attempted += spec.warm
		if err != nil {
			rep.fail("set-up run: %v", err)
			continue
		}
		b.check(res)
		setups = append(setups, b.setup.Seconds())
	}

	b := &batchRun{spec: spec, f: f, rounds: total, timedFrom: spec.warm, tracedFrom: total + 1, rep: rep}
	if opt.trace {
		b.tr = newTracer()
		b.reg = metrics.NewRegistry()
		b.q = &countingQuality{base: f.quality}
		// The first quarter of the timed rounds runs untraced: its round
		// p50 is the baseline the tracing overhead is measured against.
		b.tracedFrom = spec.warm + n/4
	}
	res, err := b.execute(context.Background())
	rep.attempted += total
	if err != nil {
		rep.fail("timed run: %v", err)
		return rep, nil
	}
	expiredAt := b.check(res)
	setups = append(setups, b.setup.Seconds())

	noteInputs(rep, spec, b, n)
	if opt.trace {
		b.layerMetrics(rep, res)
		if path, err := b.tr.write(opt.spanDir, fmt.Sprintf("%s-seed%d.jsonl", spec.name, opt.seed)); err == nil {
			rep.note("spans: %d written to %s", len(b.tr.spans), path)
		} else {
			rep.note("spans not written: %v", err)
		}
		return rep, nil
	}
	b.endToEnd(rep, res, expiredAt, setups)
	return rep, nil
}

// noteInputs states the input size the timed rounds saw.
func noteInputs(rep *report, spec *batchSpec, b *batchRun, n int) {
	var pool, pending, pairs, arrW, arrT []float64
	for r := b.timedFrom; r < b.rounds; r++ {
		rec := &b.recs[r]
		pool = append(pool, float64(rec.pool))
		pending = append(pending, float64(rec.pending))
		pairs = append(pairs, float64(rec.pairs))
		arrW = append(arrW, float64(len(b.f.workers[r])))
		arrT = append(arrT, float64(len(b.f.tasks[r])))
	}
	q := len(pool) / 4
	rep.note("workload %s: %d warm-up + %d timed rounds, %d set-ups", spec.name, spec.warm, n, spec.setups)
	rep.note("input per timed round (mean): pool workers %.0f (first quarter %.0f, last quarter %.0f), pending tasks %.0f, valid pairs %.0f; offered %.1f workers + %.1f tasks per round",
		meanOf(pool), meanOf(pool[:q]), meanOf(pool[len(pool)-q:]), meanOf(pending), meanOf(pairs), meanOf(arrW), meanOf(arrT))
}

// timeline lays the rounds from timedFrom-1 on back to back on the thread
// CPU clock: round r starts at start[r] and lasts the CPU time it used.
type timeline struct{ start, dur []time.Duration }

func (b *batchRun) timeline() timeline {
	tl := timeline{make([]time.Duration, b.rounds+1), make([]time.Duration, b.rounds)}
	for r := b.timedFrom - 1; r < b.rounds; r++ {
		rec := &b.recs[r]
		tl.dur[r] = rec.cpuEnd - rec.cpuStart
		tl.start[r+1] = tl.start[r] + tl.dur[r]
	}
	return tl
}

// due spreads round r's arrivals evenly over the round before it: arrival
// i of n is due at (i+0.5)/n of that round, which is when a platform running
// rounds back to back receives it.
func (tl timeline) due(r, i, n int) time.Duration {
	return tl.start[r-1] + time.Duration((float64(i)+0.5)/float64(n)*float64(tl.dur[r-1]))
}

// endToEnd computes the untraced run's user-facing metrics. Times are on
// the thread CPU clock; the wall-clock round times are noted beside them.
func (b *batchRun) endToEnd(rep *report, res *batch.Result, expiredAt []int, setups []float64) {
	tl := b.timeline()
	var rounds, wall, ingest, dispatch []float64
	dispatched, expired := 0, 0
	score := 0.0
	for r := b.timedFrom; r < b.rounds; r++ {
		rec := &b.recs[r]
		rounds = append(rounds, ms(tl.dur[r]))
		wall = append(wall, ms(rec.end.Sub(rec.start)))
		end := tl.start[r] + tl.dur[r]
		ingestEnd := end
		if rec.solves > 0 {
			ingestEnd = tl.start[r] + rec.cpuSolve - rec.cpuStart
		}
		for _, arr := range []int{len(b.f.workers[r]), len(b.f.tasks[r])} {
			for i := 0; i < arr; i++ {
				ingest = append(ingest, ms(ingestEnd-tl.due(r, i, arr)))
			}
		}
		for _, id := range rec.dispatched {
			if ra := b.f.taskRound[id]; ra >= b.timedFrom {
				dispatch = append(dispatch, ms(end-tl.due(ra, b.f.taskPos[id], len(b.f.tasks[ra]))))
			}
		}
		bs := res.Batches[r]
		dispatched += bs.DispatchedTasks
		score += bs.Score
		expired += expiredAt[r]
	}
	nr := len(rounds)
	var build, solve float64
	for r := b.timedFrom; r < b.rounds; r++ {
		build += ms(res.Batches[r].Build)
		solve += ms(b.recs[r].solve)
	}
	rep.note("wall clock: round p50 %.3f ms, p95 %.3f ms; build+solve is %.1f%% of the whole wall-clock round (mean %.2f of %.2f ms), the rest is Validate, dispatch, UPPER and bookkeeping",
		median(wall), quantile(wall, 0.95), 100*(build+solve)/max(meanOf(wall)*float64(nr), 1e-9), (build+solve)/float64(nr), meanOf(wall))
	rep.add("setup_s", median(setups), "s", len(setups))
	rep.add("round_ms_p50", quantile(rounds, 0.50), "ms", nr)
	rep.add("round_ms_p95", quantile(rounds, 0.95), "ms", nr)
	rep.add("dispatch_ms_p50", quantile(dispatch, 0.50), "ms", len(dispatch))
	rep.add("dispatch_ms_p95", quantile(dispatch, 0.95), "ms", len(dispatch))
	rep.add("ingest_ms_p50", quantile(ingest, 0.50), "ms", len(ingest))
	rep.add("ingest_ms_p99", quantile(ingest, 0.99), "ms", len(ingest))
	rep.add("dispatched_ratio", float64(dispatched)/float64(max(dispatched+expired, 1)), "ratio", dispatched+expired)
	rep.add("score_per_task", score/float64(max(dispatched, 1)), "quality", dispatched)
	rep.add("mem_held_mb", b.held, "MB", 1)
	rep.note("error_ratio %.6f (%d failed of %d attempted)", float64(len(rep.failures))/float64(max(rep.attempted, 1)), len(rep.failures), rep.attempted)
}

// layerMetrics computes the traced run's per-layer metrics over the traced
// rounds.
func (b *batchRun) layerMetrics(rep *report, res *batch.Result) {
	l := &layers{incremental: b.spec.incremental, mem: &b.mem}
	g0, g1 := b.gtStart, b.gtEnd
	l.gt = gtCounters{g1.bestResponses - g0.bestResponses, g1.swaps - g0.swaps, g1.arenaGrows - g0.arenaGrows}
	up := b.tr.perID("assign.upper")
	va := b.tr.perID("model.validate")
	ca := b.tr.perID("model.candidates")
	for r := b.timedFrom; r < b.rounds; r++ {
		rec := &b.recs[r]
		round := ms(rec.end.Sub(rec.start))
		if r < b.tracedFrom {
			l.base = append(l.base, round)
			continue
		}
		l.traced = append(l.traced, round)
		bl, sv := ms(res.Batches[r].Build), ms(rec.solve)
		l.build = append(l.build, bl)
		l.solve = append(l.solve, sv)
		l.post = append(l.post, round-bl-sv)
		if rec.noop {
			l.noop++
			continue
		}
		l.upper = append(l.upper, up[r])
		l.validate = append(l.validate, va[r])
		l.candidates = append(l.candidates, ca[r])
		l.quality = append(l.quality, float64(rec.qCalls))
		l.components = append(l.components, float64(rec.components))
		l.largest = append(l.largest, float64(rec.largest))
		l.pool = append(l.pool, float64(rec.pool))
		l.pending = append(l.pending, float64(rec.pending))
		l.pairs = append(l.pairs, float64(rec.pairs))
		l.resolved += rec.solves
		l.carried += rec.components - rec.solves
	}
	l.units = len(l.traced)
	split := median(l.build) + median(l.solve) + median(l.post)
	l.add(rep)
	rep.note("split: build p50 + solve p50 + post p50 = %.3f ms against traced round p50 %.3f ms (per round the three add up exactly)",
		split, median(l.traced))
}
