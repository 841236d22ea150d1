package main

import "casc/internal/metrics"

// layers holds a traced run's per-layer samples. Each workload fills the
// fields of the layers on its path; a layer it bypasses, or cannot observe
// from outside the program, stays empty and reports 0 with 0 samples.
type layers struct {
	// solve holds per-round solver time (ms) from the timing wrapper;
	// solveHist replaces it where the solver is out of reach (serve-http).
	solve     []float64
	solveHist *metrics.HistogramSnapshot
	gt        gtCounters // delta over the traced window
	units     int        // traced rounds or ticks

	upper, build, post, candidates, validate []float64
	pool, pending, pairs, quality            []float64
	components, largest                      []float64
	noop                                     int

	incremental       bool
	carried, resolved int

	tasksSvc, ratingsSvc, batchSvc []float64
	pairsPerBatch, avail, open     []float64

	mem  *memWindow
	late []float64

	// traced and base are the round times of the traced rounds and of the
	// untraced rounds before them.
	traced, base []float64
}

// add reports every per-layer metric of BENCHMARK.json, in its order.
func (l *layers) add(rep *report) {
	solveP50, solveP95, solveN := quantile(l.solve, 0.50), quantile(l.solve, 0.95), len(l.solve)
	if h := l.solveHist; h != nil {
		solveP50, solveP95, solveN = 1000*h.Quantile(0.50), 1000*h.Quantile(0.95), int(h.Count)
	}
	per := func(v uint64) float64 { return float64(v) / float64(max(l.units, 1)) }
	rep.add("assign.solve_ms_p50", solveP50, "ms", solveN)
	rep.add("assign.solve_ms_p95", solveP95, "ms", solveN)
	rep.add("assign.gt_best_responses", per(l.gt.bestResponses), "count", l.units)
	rep.add("assign.gt_swaps", per(l.gt.swaps), "count", l.units)
	rep.add("assign.arena_grows", per(l.gt.arenaGrows), "count", l.units)
	rep.add("assign.upper_ms_p50", quantile(l.upper, 0.5), "ms", len(l.upper))
	rep.add("batch.build_ms_p50", quantile(l.build, 0.5), "ms", len(l.build))
	rep.add("batch.post_ms_p50", quantile(l.post, 0.5), "ms", len(l.post))
	rep.add("batch.pool_workers", meanOf(l.pool), "count", len(l.pool))
	rep.add("batch.pending_tasks", meanOf(l.pending), "count", len(l.pending))
	rep.add("batch.valid_pairs", meanOf(l.pairs), "count", len(l.pairs))
	rep.add("batch.noop_rounds", float64(l.noop), "count", len(l.build))
	rep.add("model.candidates_ms_p50", quantile(l.candidates, 0.5), "ms", len(l.candidates))
	rep.add("model.validate_ms_p50", quantile(l.validate, 0.5), "ms", len(l.validate))
	rep.add("coop.quality_calls_per_round", meanOf(l.quality), "count", len(l.quality))
	rep.add("partition.components", meanOf(l.components), "count", len(l.components))
	rep.add("partition.largest_component", meanOf(l.largest), "count", len(l.largest))
	if l.incremental {
		n := l.carried + l.resolved
		rep.add("incremental.carried_ratio", float64(l.carried)/float64(max(n, 1)), "ratio", n)
		rep.add("incremental.components_resolved", per(uint64(l.resolved)), "count", l.units)
	} else {
		rep.add("incremental.carried_ratio", 0, "ratio", 0)
		rep.add("incremental.components_resolved", 0, "count", 0)
	}
	rep.add("server.tasks_service_ms_p50", quantile(l.tasksSvc, 0.5), "ms", len(l.tasksSvc))
	rep.add("server.ratings_service_ms_p50", quantile(l.ratingsSvc, 0.5), "ms", len(l.ratingsSvc))
	rep.add("server.batch_service_ms_p50", quantile(l.batchSvc, 0.5), "ms", len(l.batchSvc))
	rep.add("server.pairs_per_batch", meanOf(l.pairsPerBatch), "count", len(l.pairsPerBatch))
	rep.add("server.available_workers", meanOf(l.avail), "count", len(l.avail))
	rep.add("server.open_tasks", meanOf(l.open), "count", len(l.open))
	u := float64(max(l.units, 1))
	st, en := &l.mem.start, &l.mem.end
	rep.add("runtime.alloc_mb_per_round", float64(en.TotalAlloc-st.TotalAlloc)/1e6/u, "MB", l.units)
	rep.add("runtime.gc_cycles_per_round", float64(en.NumGC-st.NumGC)/u, "count", l.units)
	rep.add("runtime.gc_pause_ms_total", float64(en.PauseTotalNs-st.PauseTotalNs)/1e6, "ms", int(en.NumGC-st.NumGC))
	rep.add("loadgen.late_ms_p99", quantile(l.late, 0.99), "ms", len(l.late))
	rep.add("loadgen.late_ms_max", maxOf(l.late), "ms", len(l.late))
	tracedP50, baseP50 := quantile(l.traced, 0.5), quantile(l.base, 0.5)
	rep.add("trace.round_ms_p50", tracedP50, "ms", len(l.traced))
	rep.add("trace.overhead_ms", tracedP50-baseP50, "ms", len(l.base))
	rep.note("not reported: assign.tpg_* (GT never flushes its TPG initialisation's counters) and incremental.edges* (only visible through batch.Config.Metrics, whose assign.Instrument wrapper hides Forker from the engine); see perfbench/README.md")
	rep.note("tracing overhead: traced round p50 %.3f ms - untraced round p50 %.3f ms (the %d timed rounds before tracing starts) = %.3f ms",
		tracedP50, baseP50, len(l.base), tracedP50-baseP50)
}
