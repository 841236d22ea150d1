package batch

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"casc/internal/assign"
	"casc/internal/coop"
	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
	"casc/internal/stats"
	"casc/internal/trace"
)

// churnSource has a heavy wave of arrivals in the first few rounds, then a
// thin trickle over a large standing population — the workload the
// incremental engine is built for. Deadlines are long enough that stuck
// sub-B components persist for many rounds.
func churnSource(rounds int, seed int64) *GeneratorSource {
	const initialW, initialT, trickleW, trickleT = 300, 120, 6, 3
	universe := initialW + trickleW*rounds
	nextID := func(round, i, per, base int) int { return base + round*per + i }
	return &GeneratorSource{
		Model: coop.Synthetic{N: universe + 1, Seed: uint64(seed)},
		WorkersFn: func(round int) []model.Worker {
			n := trickleW
			if round == 0 {
				n = initialW
			}
			r := stats.NewRNG(seed + int64(round))
			ws := make([]model.Worker, n)
			for i := range ws {
				ws[i] = model.Worker{
					ID:     nextID(round, i, trickleW, 0) % universe,
					Loc:    geo.Pt(r.Float64(), r.Float64()),
					Speed:  0.02 + r.Float64()*0.06,
					Radius: 0.03 + r.Float64()*0.05,
					Arrive: float64(round),
				}
			}
			return ws
		},
		TasksFn: func(round int) []model.Task {
			n := trickleT
			if round == 0 {
				n = initialT
			}
			r := stats.NewRNG(seed + 1000 + int64(round))
			ts := make([]model.Task, n)
			for j := range ts {
				ts[j] = model.Task{
					ID:       round*trickleT + j,
					Loc:      geo.Pt(r.Float64(), r.Float64()),
					Capacity: 4,
					Created:  float64(round),
					Deadline: float64(round) + 2 + r.Float64()*8,
				}
			}
			return ts
		},
	}
}

// quietSource stops producing anything after the first rounds so the tail
// of the simulation exercises no-op rounds and mass expiry.
func quietSource(activeRounds, rounds int, seed int64) *GeneratorSource {
	inner := uniformSource(50, 12, rounds, seed)
	return &GeneratorSource{
		Model: inner.Model,
		WorkersFn: func(round int) []model.Worker {
			if round >= activeRounds {
				return nil
			}
			return inner.WorkersFn(round)
		},
		TasksFn: func(round int) []model.Task {
			if round >= activeRounds {
				return nil
			}
			return inner.TasksFn(round)
		},
	}
}

// runBoth runs the same config from scratch and incrementally, returning
// both results and decoded traces.
func runBoth(t *testing.T, cfg Config, src Source) (base, inc *Result, baseTr, incTr []trace.Record) {
	t.Helper()
	var baseBuf, incBuf bytes.Buffer

	c := cfg
	c.Incremental = false
	c.Trace = trace.NewWriter(&baseBuf)
	base, err := Run(context.Background(), c, src)
	if err != nil {
		t.Fatalf("from-scratch run: %v", err)
	}

	c = cfg
	c.Incremental = true
	c.Trace = trace.NewWriter(&incBuf)
	inc, err = Run(context.Background(), c, src)
	if err != nil {
		t.Fatalf("incremental run: %v", err)
	}

	baseTr, err = trace.Read(&baseBuf)
	if err != nil {
		t.Fatal(err)
	}
	incTr, err = trace.Read(&incBuf)
	if err != nil {
		t.Fatal(err)
	}
	return base, inc, baseTr, incTr
}

// assertBitwiseEqual requires the incremental run to reproduce the
// from-scratch run exactly: every per-round stat, every score bit, and
// every dispatched pair. Elapsed timing is the only tolerated difference.
func assertBitwiseEqual(t *testing.T, base, inc *Result, baseTr, incTr []trace.Record) {
	t.Helper()
	if len(base.Batches) != len(inc.Batches) {
		t.Fatalf("batch counts differ: %d vs %d", len(base.Batches), len(inc.Batches))
	}
	for i := range base.Batches {
		b, n := base.Batches[i], inc.Batches[i]
		if b.Round != n.Round || b.Time != n.Time ||
			b.AvailableWorkers != n.AvailableWorkers || b.AvailableTasks != n.AvailableTasks ||
			b.ValidPairs != n.ValidPairs || b.AssignedWorkers != n.AssignedWorkers ||
			b.DispatchedTasks != n.DispatchedTasks {
			t.Fatalf("round %d stats differ:\nfrom-scratch %+v\nincremental  %+v", i, b, n)
		}
		if math.Float64bits(b.Score) != math.Float64bits(n.Score) {
			t.Fatalf("round %d score differs bitwise: %v vs %v", i, b.Score, n.Score)
		}
	}
	if math.Float64bits(base.TotalScore) != math.Float64bits(inc.TotalScore) {
		t.Fatalf("total score differs bitwise: %v vs %v", base.TotalScore, inc.TotalScore)
	}
	if math.Float64bits(base.UpperTotal) != math.Float64bits(inc.UpperTotal) {
		t.Fatalf("upper total differs bitwise: %v vs %v", base.UpperTotal, inc.UpperTotal)
	}
	if math.Float64bits(base.TaskWaitTotal) != math.Float64bits(inc.TaskWaitTotal) {
		t.Fatalf("task wait differs bitwise: %v vs %v", base.TaskWaitTotal, inc.TaskWaitTotal)
	}
	if base.DispatchedTasks != inc.DispatchedTasks || base.ExpiredTasks != inc.ExpiredTasks ||
		base.DepartedWorkers != inc.DepartedWorkers {
		t.Fatalf("aggregates differ: from-scratch %+v incremental %+v", base, inc)
	}
	if len(baseTr) != len(incTr) {
		t.Fatalf("trace lengths differ: %d vs %d", len(baseTr), len(incTr))
	}
	for i := range baseTr {
		b, n := baseTr[i], incTr[i]
		if math.Float64bits(b.Upper) != math.Float64bits(n.Upper) {
			t.Fatalf("round %d upper differs bitwise: %v vs %v", i, b.Upper, n.Upper)
		}
		if len(b.Pairs) != len(n.Pairs) {
			t.Fatalf("round %d pair counts differ: %d vs %d", i, len(b.Pairs), len(n.Pairs))
		}
		for k := range b.Pairs {
			if b.Pairs[k] != n.Pairs[k] {
				t.Fatalf("round %d pair %d differs: %+v vs %+v (dispatch order must match)",
					i, k, b.Pairs[k], n.Pairs[k])
			}
		}
	}
}

// checkEquivalence runs cfg both ways and asserts bitwise equality.
func checkEquivalence(t *testing.T, cfg Config, src Source) {
	t.Helper()
	base, inc, baseTr, incTr := runBoth(t, cfg, src)
	assertBitwiseEqual(t, base, inc, baseTr, incTr)
}

func solversUnderTest() []assign.Solver {
	return []assign.Solver{
		assign.NewTPG(),
		assign.NewGT(assign.GTOptions{}),
		assign.NewGT(assign.GTOptions{LUB: true}),
	}
}

func TestIncrementalMatchesFromScratchChurn(t *testing.T) {
	for _, s := range solversUnderTest() {
		t.Run(s.Name(), func(t *testing.T) {
			src := churnSource(12, 7)
			cfg := Config{Solver: s, Rounds: 12, B: 3, ServiceDuration: 2}
			checkEquivalence(t, cfg, src)
		})
	}
}

func TestIncrementalMatchesFromScratchHeavyArrivals(t *testing.T) {
	for _, s := range solversUnderTest() {
		t.Run(s.Name(), func(t *testing.T) {
			src := uniformSource(80, 20, 8, 11)
			cfg := Config{Solver: s, Rounds: 8, B: 3}
			checkEquivalence(t, cfg, src)
		})
	}
}

func TestIncrementalMatchesFromScratchMassExpiryAndNoopTail(t *testing.T) {
	// After round 2 nothing arrives: the standing population drains through
	// dispatch and deadline expiry, and the tail rounds are no-ops (which
	// the default path short-circuits — equivalence must survive that too).
	for _, s := range solversUnderTest() {
		t.Run(s.Name(), func(t *testing.T) {
			src := quietSource(3, 10, 23)
			cfg := Config{Solver: s, Rounds: 10, B: 3, Patience: 4}
			checkEquivalence(t, cfg, src)
		})
	}
}

func TestIncrementalMatchesFromScratchWithPatience(t *testing.T) {
	src := churnSource(10, 31)
	cfg := Config{Solver: assign.NewTPG(), Rounds: 10, B: 3, Patience: 3, ServiceDuration: 1.5}
	checkEquivalence(t, cfg, src)
}

func TestIncrementalMatchesFromScratchWithPredictor(t *testing.T) {
	// The predictor is a pure performance device: pre-built superset lists
	// filtered through the exact predicate must not move a single bit.
	src := churnSource(12, 43)
	cfg := Config{
		Solver: assign.NewTPG(), Rounds: 12, B: 3, ServiceDuration: 2,
		Predict: incremental.PredictConfig{Cells: 8, Alpha: 0.5, Threshold: 0.2},
	}
	checkEquivalence(t, cfg, src)
}

func TestIncrementalMatchesFromScratchUnderGenerousBudget(t *testing.T) {
	// With a budget no solve can overrun, the ladder completes on the
	// primary rung in both modes and equivalence must hold bitwise.
	src := churnSource(8, 53)
	cfg := Config{Solver: assign.NewTPG(), Rounds: 8, B: 3, RoundBudget: time.Minute}
	checkEquivalence(t, cfg, src)
}

func TestIncrementalUnderChaosStaysRobust(t *testing.T) {
	// Chaos injects per-Solve faults, and the incremental path issues one
	// Solve per dirty component rather than one per round, so outcomes
	// legitimately diverge — the guarantee here is robustness only: the
	// run completes, every round's assignment validates, scores are finite.
	src := churnSource(10, 61)
	cfg := Config{
		Solver: assign.NewTPG(), Rounds: 10, B: 3, Incremental: true,
		Chaos: &resilience.ChaosConfig{Seed: 5, FailRate: 0.3, TruncateRate: 0.3},
	}
	res, err := Run(context.Background(), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 10 {
		t.Fatalf("ran %d rounds, want 10", len(res.Batches))
	}
	for _, b := range res.Batches {
		if math.IsNaN(b.Score) || math.IsInf(b.Score, 0) || b.Score < 0 {
			t.Fatalf("round %d has bad score %v", b.Round, b.Score)
		}
	}
}

func TestNoopRoundsShortCircuit(t *testing.T) {
	// A tail of empty rounds after everything dispatched or expired must be
	// detected as no-ops: same results, and the counter records the skips.
	reg := metrics.NewRegistry()
	src := quietSource(2, 12, 71)
	cfg := Config{Solver: assign.NewTPG(), Rounds: 12, B: 3, Metrics: reg}
	res, err := Run(context.Background(), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	noops, _ := reg.Snapshot().Counter(MetricNoopRounds, metrics.L("solver", "TPG"))
	if noops == 0 {
		t.Fatal("no rounds were short-circuited; expected a no-op tail")
	}
	// The skipped rounds must still be accounted in the result.
	if len(res.Batches) != 12 {
		t.Fatalf("ran %d rounds, want 12", len(res.Batches))
	}
}

func TestIncrementalMetricsDoNotChangeSolve(t *testing.T) {
	// assign.Instrument must forward Fork and SetArena: the incremental
	// engine forks per component (with per-component seeds and its arena)
	// only when the solver can fork, so a wrapper that hid them would make
	// enabling metrics change the solve path. RAND exposes that through its
	// seeds; GT through the arena path.
	for _, mk := range []func() assign.Solver{
		func() assign.Solver { return assign.NewGT(assign.GTOptions{LUB: true, Epsilon: 0.01}) },
		func() assign.Solver { return assign.NewRandom(9) },
	} {
		t.Run(mk().Name(), func(t *testing.T) {
			run := func(reg *metrics.Registry) *Result {
				t.Helper()
				cfg := Config{Solver: mk(), Rounds: 12, B: 3, ServiceDuration: 2, Incremental: true, Seed: 3, Metrics: reg}
				res, err := Run(context.Background(), cfg, churnSource(12, 7))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain, metered := run(nil), run(metrics.NewRegistry())
			if len(plain.Batches) != len(metered.Batches) {
				t.Fatalf("batch counts differ: %d vs %d", len(plain.Batches), len(metered.Batches))
			}
			for i := range plain.Batches {
				p, m := plain.Batches[i], metered.Batches[i]
				if math.Float64bits(p.Score) != math.Float64bits(m.Score) ||
					p.DispatchedTasks != m.DispatchedTasks || p.AssignedWorkers != m.AssignedWorkers {
					t.Fatalf("round %d: metrics off %+v, metrics on %+v", i, p, m)
				}
			}
		})
	}
}

func TestIncrementalWarmEntriesGauge(t *testing.T) {
	// Commit gauges the warm cache after its prune; on churn the cache
	// holds the live tasks' entries, and the rounds stay bitwise equal to
	// the from-scratch path.
	reg := metrics.NewRegistry()
	cfg := Config{Solver: assign.NewTPG(), Rounds: 12, B: 3, ServiceDuration: 2, Metrics: reg}
	base, inc, baseTr, incTr := runBoth(t, cfg, churnSource(12, 7))
	assertBitwiseEqual(t, base, inc, baseTr, incTr)
	if entries, ok := reg.Snapshot().Gauge(incremental.MetricWarmEntries); !ok || entries == 0 {
		t.Fatalf("warm entries gauge %v (registered %v), want the cache of the live tasks", entries, ok)
	}
}
