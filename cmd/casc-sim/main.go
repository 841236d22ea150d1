// casc-sim runs CA-SC assignments — either one batch loaded from a
// casc-gen JSON file or generated on the fly, or a multi-round Algorithm 1
// simulation — through a chosen solver and reports assignment quality
// against the UPPER estimate, optionally comparing every approach.
//
// Usage:
//
//	casc-sim -data batch.json -solver GT+ALL
//	casc-sim -m 500 -n 200 -solver GT          # generate one batch
//	casc-sim -data batch.json -compare         # all solvers side by side
//	casc-sim -rounds 10 -m 300 -n 100 -compare # Algorithm 1 simulation
//	casc-sim -rounds 10 -metrics m.json        # dump final metrics snapshot
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"casc/internal/assign"
	"casc/internal/batch"
	"casc/internal/coop"
	"casc/internal/dataset"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
	"casc/internal/roadnet"
	"casc/internal/scenario"
	"casc/internal/server"
	"casc/internal/shard"
	"casc/internal/trace"
	"casc/internal/viz"
	"casc/internal/workload"
)

func main() {
	var (
		data     = flag.String("data", "", "dataset JSON from casc-gen (empty: generate)")
		solver   = flag.String("solver", "GT", "solver: TPG|GT|GT+LUB|GT+TSI|GT+ALL|MFLOW|RAND|WST")
		compare  = flag.Bool("compare", false, "run every solver and print a comparison")
		m        = flag.Int("m", 1000, "workers when generating (per round with -rounds)")
		n        = flag.Int("n", 500, "tasks when generating (per round with -rounds)")
		seed     = flag.Int64("seed", 1, "seed when generating")
		index    = flag.String("index", "rtree", "spatial index for single-batch runs (-rounds ignores it): rtree|grid|linear")
		rounds   = flag.Int("rounds", 1, "batch rounds; >1 runs the Algorithm 1 simulator over generated arrivals")
		svg      = flag.String("svg", "", "write an SVG rendering of the (last) solver's assignment to this file")
		road     = flag.Bool("road", false, "use a road-network travel model instead of Euclidean")
		traceF   = flag.String("trace", "", "with -rounds: record per-batch JSONL trace to this file")
		metricsF = flag.String("metrics", "", "write the final metrics snapshot as JSON to this file")
		budget   = flag.Duration("budget", 0, "per-round solve budget; overruns fall through the anytime ladder (solver → TPG → RAND → empty floor)")
		shards   = flag.Int("shards", 0, "with -rounds: drive the region-sharded cluster tier with this many spatial shards; its -m workers register once, at round 0, and -n tasks arrive every round (0: monolithic batch pipeline)")
		incr     = flag.Bool("incremental", false, "with -rounds: solve through the persistent incremental engine (dirty-component re-solve; bitwise identical rounds for deterministic solvers)")
		chaos    = flag.Bool("chaos", false, "inject seeded deterministic faults into every ladder rung (rehearsal mode; seeded by -seed)")
		chFail   = flag.Float64("chaos-fail", 1.0, "with -chaos: probability a rung solve fails outright")
		chLat    = flag.Duration("chaos-latency", 0, "with -chaos: max injected latency per rung solve")
		chTrunc  = flag.Float64("chaos-trunc", 0, "with -chaos: probability a rung result is truncated to half its pairs")
		scenRef  = flag.String("scenario", "", "run a discrete-event scenario: a built-in name or a JSON spec file (see docs/SCENARIOS.md); supersedes -m/-n/-rounds")
		record   = flag.String("record", "", "with -scenario: write the generated arrival event stream (JSONL) to this file for later bitwise replay")
		replayF  = flag.String("replay", "", "replay a recorded arrival event stream (JSONL) instead of generating one from a spec")
		replaySv = flag.String("replay-solver", "", "with -scenario/-replay: dispatch with this solver instead of the spec's/recorded one")
		cfK      = flag.Int("counterfactual-k", 0, "with -scenario/-replay: per round, also solve this many alternate solvers on the identical instance and report regret (-1: every spec alternate; monolithic only)")
		reportF  = flag.String("report", "", "with -scenario/-replay: write the run report (score, SLO classes, counterfactual regret) as JSON to this file")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var reg *metrics.Registry
	if *metricsF != "" {
		reg = metrics.NewRegistry()
		defer dumpMetrics(*metricsF, reg)
	}
	if reg == nil && (*budget > 0 || *chaos) {
		// The ladder summary printed at exit reads these counters even
		// when no -metrics dump was requested.
		reg = metrics.NewRegistry()
	}
	var chaosCfg *resilience.ChaosConfig
	if *chaos {
		chaosCfg = &resilience.ChaosConfig{
			Seed:         *seed,
			FailRate:     *chFail,
			Latency:      *chLat,
			TruncateRate: *chTrunc,
			Metrics:      reg,
		}
	}
	kind, err := indexKind(*index)
	if err != nil {
		fatal(err)
	}
	if *scenRef != "" || *replayF != "" {
		if *scenRef != "" && *replayF != "" {
			fatal(fmt.Errorf("-scenario and -replay are mutually exclusive (a replay carries its own schedule)"))
		}
		if *data != "" {
			fatal(fmt.Errorf("-scenario/-replay generate their own arrivals; drop -data"))
		}
		runScenario(ctx, scenarioArgs{
			ref: *scenRef, replay: *replayF, record: *record, solver: *replaySv,
			counterfactualK: *cfK, report: *reportF, tracePath: *traceF,
			reg: reg, budget: *budget, chaos: chaosCfg,
			incremental: *incr, shards: *shards,
		})
		ladderSummary(reg)
		return
	}
	if *record != "" || *replaySv != "" || *cfK != 0 || *reportF != "" {
		fatal(fmt.Errorf("-record/-replay-solver/-counterfactual-k/-report need -scenario or -replay"))
	}
	if *rounds > 1 {
		if *data != "" {
			fatal(fmt.Errorf("-rounds simulation generates its own arrivals; drop -data"))
		}
		if *shards > 0 {
			simulateShards(ctx, *solver, *m, *n, *seed, *rounds, *shards, reg, *budget, chaosCfg, *incr)
			ladderSummary(reg)
			return
		}
		simulate(ctx, *solver, *compare, *m, *n, *seed, *rounds, *traceF, reg, *budget, chaosCfg, *incr)
		ladderSummary(reg)
		return
	}
	in, err := load(*data, *m, *n, *seed, kind)
	if err != nil {
		fatal(err)
	}
	if *road {
		nw, err := roadnet.NewGrid(roadnet.DefaultGrid())
		if err != nil {
			fatal(err)
		}
		in.Travel = nw.Travel(in.Workers, in.Tasks)
		in.BuildCandidates(kind)
	}
	fmt.Printf("instance: %d workers, %d tasks, B=%d, %d valid pairs\n",
		len(in.Workers), len(in.Tasks), in.B, in.NumValidPairs())
	ub := assign.Upper(in)
	fmt.Printf("UPPER estimate (Eq. 9): %.2f\n\n", ub)

	names := []string{*solver}
	if *compare {
		names = assign.AllNames()
	}
	fmt.Printf("%-8s %12s %10s %8s %10s %10s\n", "solver", "score", "of UPPER", "pairs", "tasks≥B", "time")
	var lastA *model.Assignment
	var lastName string
	for _, name := range names {
		s, err := assign.ByName(name, *seed)
		if err != nil {
			fatal(err)
		}
		s = assign.Instrument(s, reg)
		var ladder *resilience.Ladder
		if *budget > 0 || chaosCfg != nil {
			ladder, err = resilience.NewChainLadder(resilience.Config{Budget: *budget, Metrics: reg}, s, *seed, chaosCfg)
			if err != nil {
				fatal(err)
			}
		}
		start := time.Now()
		var a *model.Assignment
		var out resilience.Outcome
		if ladder != nil {
			a, out = ladder.SolveBudgeted(ctx, in)
		} else {
			a, err = s.Solve(ctx, in)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
		}
		elapsed := time.Since(start)
		if err := a.Validate(in); err != nil {
			fatal(fmt.Errorf("%s produced an invalid assignment: %w", name, err))
		}
		score := a.TotalScore(in)
		frac := 0.0
		if ub > 0 {
			frac = score / ub * 100
		}
		fmt.Printf("%-8s %12.2f %9.1f%% %8d %10d %10s",
			name, score, frac, a.NumAssigned(), a.CompletedTasks(in), elapsed.Round(time.Millisecond))
		if ladder != nil {
			fmt.Printf("  rung=%s fallbacks=%d", out.Rung, out.Fallbacks)
		}
		fmt.Println()
		lastA, lastName = a, name
	}
	ladderSummary(reg)
	if *svg != "" && lastA != nil {
		title := fmt.Sprintf("%s: score %.2f of UPPER %.2f", lastName, lastA.TotalScore(in), ub)
		if err := viz.SaveAssignment(*svg, in, lastA, viz.Options{Title: title}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *svg)
	}
}

// simulate runs the Algorithm 1 simulator: fresh worker/task waves each
// round, carry-over of unserved tasks, busy workers returning after
// service.
func simulate(ctx context.Context, solverName string, compare bool, m, n int, seed int64, rounds int, tracePath string, reg *metrics.Registry, budget time.Duration, chaosCfg *resilience.ChaosConfig, incremental bool) {
	names := []string{solverName}
	if compare {
		names = assign.AllNames()
	}
	var tw *trace.Writer
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw = trace.NewWriter(f)
	}
	p := workload.Default()
	p.NumWorkers, p.NumTasks = m, n
	universe := m * rounds
	fmt.Printf("Algorithm 1 simulation: %d rounds, %d workers + %d tasks arriving per round\n\n",
		rounds, m, n)
	fmt.Printf("%-8s %12s %12s %10s %10s %12s\n", "solver", "total score", "of UPPER", "dispatched", "expired", "avg batch")
	for _, name := range names {
		s, err := assign.ByName(name, seed)
		if err != nil {
			fatal(err)
		}
		src := &batch.GeneratorSource{
			Model: coop.Synthetic{N: universe, Seed: uint64(seed)},
			WorkersFn: func(round int) []model.Worker {
				ws := p.WithSeed(seed + int64(round)).Workers(float64(round))
				return batch.RoundRobinIDs(ws, round, m, universe)
			},
			TasksFn: func(round int) []model.Task {
				return p.WithSeed(seed + 5000 + int64(round)).Tasks(float64(round))
			},
		}
		res, err := batch.Run(ctx, batch.Config{
			Solver:      s,
			Rounds:      rounds,
			B:           p.B,
			Trace:       tw,
			TraceRun:    name,
			Metrics:     reg,
			Seed:        seed,
			RoundBudget: budget,
			Chaos:       chaosCfg,
			Incremental: incremental,
		}, src)
		if err != nil {
			fatal(err)
		}
		var avg time.Duration
		for _, b := range res.Batches {
			avg += b.Elapsed
		}
		avg /= time.Duration(len(res.Batches))
		frac := 0.0
		if res.UpperTotal > 0 {
			frac = res.TotalScore / res.UpperTotal * 100
		}
		fmt.Printf("%-8s %12.2f %11.1f%% %10d %10d %12s\n",
			name, res.TotalScore, frac, res.DispatchedTasks, res.ExpiredTasks, avg.Round(time.Microsecond))
	}
}

// scenarioArgs bundles the -scenario/-replay driver inputs.
type scenarioArgs struct {
	ref             string // built-in name or spec file (-scenario)
	replay          string // recorded event stream (-replay)
	record          string
	solver          string // override; "" keeps the spec's/recorded one
	counterfactualK int
	report          string
	tracePath       string
	reg             *metrics.Registry
	budget          time.Duration
	chaos           *resilience.ChaosConfig
	incremental     bool
	shards          int
}

// runScenario drives the discrete-event scenario engine: generate (or
// replay) the arrival plan, optionally record it, run it through the
// monolithic or sharded pipeline, and print the score/SLO/regret report.
func runScenario(ctx context.Context, a scenarioArgs) {
	var (
		plan *scenario.Plan
		err  error
	)
	solverName := a.solver
	if a.replay != "" {
		meta, events, rerr := trace.ReadEventsFile(a.replay)
		if rerr != nil {
			fatal(rerr)
		}
		plan, err = scenario.FromEvents(meta, events)
		if err != nil {
			fatal(err)
		}
		if solverName == "" {
			solverName = meta.Solver
		}
		fmt.Printf("replaying %s: scenario %q, %d rounds, %d workers, %d tasks\n",
			a.replay, meta.Scenario, plan.Rounds(), plan.NumWorkers(), plan.NumTasks())
	} else {
		spec, lerr := scenario.Load(a.ref)
		if lerr != nil {
			fatal(lerr)
		}
		plan, err = scenario.Generate(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scenario %q: %d rounds, %d workers, %d tasks (processes: %s/%s)\n",
			spec.Name, plan.Rounds(), plan.NumWorkers(), plan.NumTasks(),
			spec.Workers.Process, spec.Tasks.Process)
	}
	if solverName == "" {
		solverName = plan.Spec.Solver
	}
	if a.record != "" {
		f, cerr := os.Create(a.record)
		if cerr != nil {
			fatal(cerr)
		}
		meta, events := plan.Events(solverName)
		if werr := trace.WriteEvents(f, meta, events); werr != nil {
			_ = f.Close()
			fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			fatal(cerr)
		}
		fmt.Printf("recorded %d events to %s\n", len(events)+1, a.record)
	}
	var tw *trace.Writer
	if a.tracePath != "" {
		f, cerr := os.Create(a.tracePath)
		if cerr != nil {
			fatal(cerr)
		}
		defer f.Close()
		tw = trace.NewWriter(f)
	}
	rep, err := scenario.Run(ctx, scenario.RunConfig{
		Plan:            plan,
		Solver:          solverName,
		CounterfactualK: a.counterfactualK,
		Budget:          a.budget,
		Chaos:           a.chaos,
		Incremental:     a.incremental,
		Shards:          a.shards,
		Trace:           tw,
		Metrics:         a.reg,
	})
	if err != nil {
		fatal(err)
	}
	frac := 0.0
	if rep.Upper > 0 {
		frac = rep.Score / rep.Upper * 100
	}
	fmt.Printf("\n%-8s %12s %12s %10s %10s\n", "solver", "total score", "of UPPER", "dispatched", "expired")
	fmt.Printf("%-8s %12.2f %11.1f%% %10d %10d\n", rep.Solver, rep.Score, frac, rep.Dispatched, rep.Expired)
	if rep.Exhausted > 0 {
		fmt.Printf("budget-exhausted rounds: %d\n", rep.Exhausted)
	}
	if rep.SLO != nil {
		fmt.Printf("\nSLO classes:\n%s", rep.SLO.String())
	}
	if cf := rep.Counterfactual; cf != nil {
		fmt.Printf("\ncounterfactuals (chosen %s): %d alternate solves, mean regret %.4f, max %.4f\n",
			cf.Chosen, cf.Solves, cf.MeanRegret, cf.MaxRegret)
		for _, alt := range cf.AltTotals {
			fmt.Printf("  %-8s total score %12.2f (chosen total %.2f)\n", alt.Name, alt.Score, rep.Score)
		}
	}
	if a.report != "" {
		data, merr := json.MarshalIndent(rep, "", " ")
		if merr != nil {
			fatal(merr)
		}
		if werr := os.WriteFile(a.report, append(data, '\n'), 0o644); werr != nil {
			fatal(werr)
		}
		fmt.Printf("wrote report to %s\n", a.report)
	}
}

// simulateShards drives the -rounds arrival stream through the
// region-sharded cluster tier instead of the monolithic batch pipeline.
// Budget-exhausted rounds (every round under -chaos -chaos-fail 1) are
// all-or-nothing no-ops: nothing dispatches, no worker is lost, and the
// next round retries — the rehearsal asserts the registries survive.
func simulateShards(ctx context.Context, solverName string, m, n int, seed int64, rounds, k int, reg *metrics.Registry, budget time.Duration, chaosCfg *resilience.ChaosConfig, incremental bool) {
	if chaosCfg != nil && budget <= 0 {
		fatal(fmt.Errorf("-shards with -chaos needs a -budget (the cluster injects faults into the budgeted ladder)"))
	}
	p := workload.Default()
	p.NumWorkers, p.NumTasks = m, n
	c, err := shard.NewCluster(shard.Config{
		K: k, B: p.B, Metrics: reg, SolveBudget: budget, Chaos: chaosCfg,
		Incremental: incremental,
	})
	if err != nil {
		fatal(err)
	}
	for _, w := range p.WithSeed(seed).Workers(0) {
		if _, err := c.RegisterWorker(w.Loc, w.Speed, w.Radius); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("sharded simulation: %d shards, %d rounds, %d workers registered at round 0, %d tasks arriving per round\n\n",
		k, rounds, m, n)
	var dispatched, expired, exhausted int
	var score float64
	for round := 0; round < rounds; round++ {
		for _, t := range p.WithSeed(seed + 5000 + int64(round)).Tasks(c.Now()) {
			if _, err := c.PostTask(t.Loc, t.Capacity, t.Deadline); err != nil {
				fatal(err)
			}
		}
		res, err := c.RunBatch(ctx, solverName)
		if errors.Is(err, server.ErrBudgetExhausted) {
			exhausted++
			continue
		}
		if err != nil {
			fatal(err)
		}
		dispatched += res.DispatchedTasks
		expired += res.ExpiredTasks
		score += res.Score
		rated := map[int]bool{}
		for _, pr := range res.Pairs {
			if rated[pr.Task] {
				continue
			}
			rated[pr.Task] = true
			s := 0.5
			if pr.Task%2 == 1 {
				s = 1.0
			}
			if err := c.RateTask(pr.Task, s); err != nil {
				fatal(err)
			}
		}
	}
	st := c.Status()
	fmt.Printf("%-10s %12s %10s %8s %10s %10s\n", "router", "total score", "dispatched", "expired", "exhausted", "workers")
	fmt.Printf("%-10s %12.2f %10d %8d %10d %10d\n",
		st.Router, score, dispatched, expired, exhausted, st.AvailableWorkers+st.BusyWorkers)
	if got := st.AvailableWorkers + st.BusyWorkers; got != m {
		fatal(fmt.Errorf("registry corrupted: %d workers tracked, %d registered", got, m))
	}
}

func load(path string, m, n int, seed int64, kind model.IndexKind) (*model.Instance, error) {
	if path != "" {
		wire, err := dataset.Load(path)
		if err != nil {
			return nil, err
		}
		return wire.ToModel(kind)
	}
	p := workload.Default()
	p.NumWorkers, p.NumTasks = m, n
	p.Seed = seed
	return p.Instance(0, kind)
}

func indexKind(s string) (model.IndexKind, error) {
	switch s {
	case "rtree":
		return model.IndexRTree, nil
	case "grid":
		return model.IndexGrid, nil
	case "linear":
		return model.IndexLinear, nil
	}
	return 0, fmt.Errorf("unknown index %q", s)
}

// ladderSummary prints the run's aggregate ladder counters — fallbacks,
// budget overruns, exhausted (floor) solves, chaos injections — so a
// -budget/-chaos run shows its degradations even without a -metrics dump.
func ladderSummary(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	sum := func(name string) uint64 {
		var total uint64
		for _, c := range snap.Counters {
			if c.Name == name {
				total += c.Value
			}
		}
		return total
	}
	fallbacks := sum(resilience.MetricLadderFallbacks)
	solves := sum(resilience.MetricLadderSolves)
	if solves == 0 {
		return
	}
	fmt.Printf("\nladder: %d solves, %d fallbacks, %d budget overruns, %d exhausted (floor), %d chaos injections\n",
		solves, fallbacks, sum(resilience.MetricLadderOverruns),
		sum(resilience.MetricLadderExhausted), sum(resilience.MetricChaosInjections))
}

// dumpMetrics writes the registry snapshot as indented JSON.
func dumpMetrics(path string, reg *metrics.Registry) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(reg.Snapshot()); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "casc-sim: %v\n", err)
	os.Exit(1)
}
