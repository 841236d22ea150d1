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
	"casc/internal/metrics"
	"casc/internal/model"
	"casc/internal/resilience"
	"casc/internal/stats"
	"casc/internal/trace"
)

// uniformSource generates fresh workers and tasks every round over a fixed
// synthetic quality universe.
func uniformSource(perRoundWorkers, perRoundTasks, rounds int, seed int64) *GeneratorSource {
	universe := perRoundWorkers * rounds
	return &GeneratorSource{
		Model: coop.Synthetic{N: universe, Seed: uint64(seed)},
		WorkersFn: func(round int) []model.Worker {
			r := stats.NewRNG(seed + int64(round))
			ws := make([]model.Worker, perRoundWorkers)
			for i := range ws {
				ws[i] = model.Worker{
					ID:     round*perRoundWorkers + i,
					Loc:    geo.Pt(r.Float64(), r.Float64()),
					Speed:  0.02 + r.Float64()*0.06,
					Radius: 0.08 + r.Float64()*0.12,
					Arrive: float64(round),
				}
			}
			return ws
		},
		TasksFn: func(round int) []model.Task {
			r := stats.NewRNG(seed + 1000 + int64(round))
			ts := make([]model.Task, perRoundTasks)
			for j := range ts {
				ts[j] = model.Task{
					ID:       round*perRoundTasks + j,
					Loc:      geo.Pt(r.Float64(), r.Float64()),
					Capacity: 4,
					Created:  float64(round),
					Deadline: float64(round) + 3,
				}
			}
			return ts
		},
	}
}

func TestRunBasics(t *testing.T) {
	src := uniformSource(60, 15, 5, 1)
	res, err := Run(context.Background(), Config{
		Solver: assign.NewTPG(),
		Rounds: 5,
		B:      3,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 5 {
		t.Fatalf("ran %d batches", len(res.Batches))
	}
	if res.TotalScore <= 0 {
		t.Error("no cooperation score accumulated")
	}
	if res.DispatchedTasks == 0 {
		t.Error("no tasks dispatched")
	}
	var sum float64
	disp := 0
	for i, b := range res.Batches {
		if b.Round != i {
			t.Errorf("batch %d has round %d", i, b.Round)
		}
		if b.Score < 0 || b.AssignedWorkers < 0 {
			t.Errorf("batch %d has negative stats", i)
		}
		if b.AssignedWorkers > 0 && b.DispatchedTasks == 0 {
			t.Errorf("batch %d assigned workers without dispatching tasks", i)
		}
		sum += b.Score
		disp += b.DispatchedTasks
	}
	if sum != res.TotalScore || disp != res.DispatchedTasks {
		t.Error("aggregates inconsistent with per-batch stats")
	}
	if res.UpperTotal < res.TotalScore-1e-9 {
		t.Errorf("UPPER total %v below achieved %v", res.UpperTotal, res.TotalScore)
	}
}

func TestBusyWorkersAreUnavailable(t *testing.T) {
	// One round's dispatched workers must not be available in the next
	// round while still busy (travel + service time spans > 1 interval).
	src := uniformSource(40, 10, 3, 2)
	res, err := Run(context.Background(), Config{
		Solver:          assign.NewTPG(),
		Rounds:          3,
		B:               3,
		ServiceDuration: 10, // busy for the whole simulation once dispatched
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Batches); i++ {
		prev, cur := res.Batches[i-1], res.Batches[i]
		// Workers available = previous leftover + 40 new arrivals. Leftover
		// excludes everyone dispatched earlier.
		wantMax := prev.AvailableWorkers - prev.AssignedWorkers + 40
		if cur.AvailableWorkers > wantMax {
			t.Errorf("round %d: %d workers available, want ≤ %d (dispatched workers leaked back)",
				i, cur.AvailableWorkers, wantMax)
		}
	}
}

func TestWorkersReturnAfterService(t *testing.T) {
	// With a short service duration workers must come back to the pool.
	src := uniformSource(40, 10, 4, 3)
	cfgShort := Config{Solver: assign.NewTPG(), Rounds: 4, B: 3, ServiceDuration: 0.01}
	short, err := Run(context.Background(), cfgShort, src)
	if err != nil {
		t.Fatal(err)
	}
	srcLong := uniformSource(40, 10, 4, 3)
	long, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 4, B: 3, ServiceDuration: 50}, srcLong)
	if err != nil {
		t.Fatal(err)
	}
	// Short service ⇒ strictly more worker availability in later rounds.
	shortAvail, longAvail := 0, 0
	for i := 1; i < 4; i++ {
		shortAvail += short.Batches[i].AvailableWorkers
		longAvail += long.Batches[i].AvailableWorkers
	}
	if shortAvail <= longAvail {
		t.Errorf("short-service availability %d not above long-service %d", shortAvail, longAvail)
	}
}

func TestExpiredTasksCounted(t *testing.T) {
	// Tasks nobody can reach must eventually expire.
	src := &GeneratorSource{
		Model: coop.Synthetic{N: 10, Seed: 1},
		WorkersFn: func(round int) []model.Worker {
			if round > 0 {
				return nil
			}
			ws := make([]model.Worker, 5)
			for i := range ws {
				ws[i] = model.Worker{ID: i, Loc: geo.Pt(0.05, 0.05), Speed: 0.01, Radius: 0.01}
			}
			return ws
		},
		TasksFn: func(round int) []model.Task {
			if round > 0 {
				return nil
			}
			return []model.Task{{ID: 0, Loc: geo.Pt(0.9, 0.9), Capacity: 3, Created: 0, Deadline: 2}}
		},
	}
	res, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 5, B: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredTasks != 1 {
		t.Errorf("expired tasks = %d, want 1", res.ExpiredTasks)
	}
	if res.DispatchedTasks != 0 || res.TotalScore != 0 {
		t.Error("unreachable task was dispatched")
	}
}

func TestUnderfilledTasksRetryNextRound(t *testing.T) {
	// Two workers in round 0 (below B=3), a third arrives in round 1; the
	// task must be dispatched in round 1.
	mkWorker := func(id int, arrive float64) model.Worker {
		return model.Worker{ID: id, Loc: geo.Pt(0.5, 0.5), Speed: 0.2, Radius: 0.5, Arrive: arrive}
	}
	q := coop.NewMatrix(3)
	q.Set(0, 1, 0.9)
	q.Set(0, 2, 0.9)
	q.Set(1, 2, 0.9)
	src := &GeneratorSource{
		Model: q,
		WorkersFn: func(round int) []model.Worker {
			switch round {
			case 0:
				return []model.Worker{mkWorker(0, 0), mkWorker(1, 0)}
			case 1:
				return []model.Worker{mkWorker(2, 1)}
			}
			return nil
		},
		TasksFn: func(round int) []model.Task {
			if round == 0 {
				return []model.Task{{ID: 0, Loc: geo.Pt(0.5, 0.5), Capacity: 3, Created: 0, Deadline: 10}}
			}
			return nil
		},
	}
	res, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 3, B: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches[0].DispatchedTasks != 0 {
		t.Error("task dispatched below B in round 0")
	}
	if res.Batches[1].DispatchedTasks != 1 {
		t.Errorf("task not dispatched in round 1: %+v", res.Batches[1])
	}
	if res.TotalScore <= 0 {
		t.Error("no score for the dispatched task")
	}
}

func TestConfigValidation(t *testing.T) {
	src := uniformSource(10, 5, 1, 4)
	cases := map[string]Config{
		"nil solver": {Rounds: 1, B: 3},
		"no rounds":  {Solver: assign.NewTPG(), B: 3},
		"bad B":      {Solver: assign.NewTPG(), Rounds: 1, B: 1},
	}
	for name, cfg := range cases {
		if _, err := Run(context.Background(), cfg, src); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Task capacity below B is rejected at runtime.
	bad := &GeneratorSource{
		Model:     coop.Synthetic{N: 5, Seed: 1},
		WorkersFn: func(int) []model.Worker { return nil },
		TasksFn: func(round int) []model.Task {
			return []model.Task{{ID: 0, Capacity: 2, Deadline: 5}}
		},
	}
	if _, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 1, B: 3}, bad); err == nil {
		t.Error("capacity below B accepted")
	}
}

func TestContextCancelled(t *testing.T) {
	src := uniformSource(30, 10, 5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Solver: assign.NewTPG(), Rounds: 5, B: 3}, src); err == nil {
		t.Error("cancelled context not reported")
	}
}

func TestGTOutperformsRandInSimulation(t *testing.T) {
	run := func(s assign.Solver, seed int64) float64 {
		src := uniformSource(80, 20, 4, seed)
		res, err := Run(context.Background(), Config{Solver: s, Rounds: 4, B: 3}, src)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalScore
	}
	gt := run(assign.NewGT(assign.GTOptions{}), 6)
	rnd := run(assign.NewRandom(1), 6)
	if gt <= rnd {
		t.Errorf("GT total %v not above RAND %v in end-to-end simulation", gt, rnd)
	}
}

func TestRoundRobinIDs(t *testing.T) {
	ws := []model.Worker{{ID: 99}, {ID: 98}}
	out := RoundRobinIDs(ws, 2, 2, 5)
	if out[0].ID != 4 || out[1].ID != 0 {
		t.Errorf("IDs = %d,%d want 4,0", out[0].ID, out[1].ID)
	}
	if ws[0].ID != 99 {
		t.Error("input mutated")
	}
}

func TestDerivedMetrics(t *testing.T) {
	src := uniformSource(60, 15, 4, 8)
	res, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 4, B: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	if u := res.WorkerUtilization(); u < 0 || u > 1 {
		t.Errorf("utilization %v outside [0,1]", u)
	}
	if w := res.TaskWaitMean(); w < 0 {
		t.Errorf("negative mean wait %v", w)
	}
	if dr := res.DispatchRate(); dr < 0 || dr > 1 {
		t.Errorf("dispatch rate %v outside [0,1]", dr)
	}
	// Empty result: all metrics zero.
	empty := &Result{}
	if empty.WorkerUtilization() != 0 || empty.TaskWaitMean() != 0 || empty.DispatchRate() != 0 {
		t.Error("empty result metrics nonzero")
	}
}

func TestTaskWaitAccountsForRetries(t *testing.T) {
	// The task from TestUnderfilledTasksRetryNextRound waits exactly one
	// batch interval.
	mkWorker := func(id int, arrive float64) model.Worker {
		return model.Worker{ID: id, Loc: geo.Pt(0.5, 0.5), Speed: 0.2, Radius: 0.5, Arrive: arrive}
	}
	q := coop.NewMatrix(3)
	q.Set(0, 1, 0.9)
	q.Set(0, 2, 0.9)
	q.Set(1, 2, 0.9)
	src := &GeneratorSource{
		Model: q,
		WorkersFn: func(round int) []model.Worker {
			switch round {
			case 0:
				return []model.Worker{mkWorker(0, 0), mkWorker(1, 0)}
			case 1:
				return []model.Worker{mkWorker(2, 1)}
			}
			return nil
		},
		TasksFn: func(round int) []model.Task {
			if round == 0 {
				return []model.Task{{ID: 0, Loc: geo.Pt(0.5, 0.5), Capacity: 3, Created: 0, Deadline: 10}}
			}
			return nil
		},
	}
	res, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 3, B: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchedTasks != 1 {
		t.Fatalf("dispatched %d", res.DispatchedTasks)
	}
	if w := res.TaskWaitMean(); w != 1 {
		t.Errorf("mean wait %v, want 1 (one retry round)", w)
	}
}

func TestTraceRecording(t *testing.T) {
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	src := uniformSource(60, 15, 3, 9)
	res, err := Run(context.Background(), Config{
		Solver: assign.NewTPG(), Rounds: 3, B: 3, Trace: tw, TraceRun: "test-run",
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("traced %d records, want 3", len(recs))
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	sums := trace.Summarize(recs)
	if len(sums) != 1 || sums[0].Run != "test-run" || sums[0].Solver != "TPG" {
		t.Fatalf("summary: %+v", sums)
	}
	if math.Abs(sums[0].TotalScore-res.TotalScore) > 1e-9 {
		t.Errorf("trace score %v, simulation %v", sums[0].TotalScore, res.TotalScore)
	}
	pairs := 0
	for _, b := range res.Batches {
		pairs += b.AssignedWorkers
	}
	if sums[0].DispatchedPairs != pairs {
		t.Errorf("trace pairs %d, simulation %d", sums[0].DispatchedPairs, pairs)
	}
}

func TestWorkerPatience(t *testing.T) {
	// A lone worker can never form a B=3 group; with Patience=2 it departs
	// after two idle batches.
	src := &GeneratorSource{
		Model: coop.Synthetic{N: 1, Seed: 1},
		WorkersFn: func(round int) []model.Worker {
			if round == 0 {
				return []model.Worker{{ID: 0, Loc: geo.Pt(0.5, 0.5), Speed: 0.1, Radius: 0.3}}
			}
			return nil
		},
		TasksFn: func(round int) []model.Task { return nil },
	}
	res, err := Run(context.Background(), Config{
		Solver: assign.NewTPG(), Rounds: 4, B: 3, Patience: 2,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.DepartedWorkers != 1 {
		t.Fatalf("departed = %d, want 1", res.DepartedWorkers)
	}
	if res.Batches[0].AvailableWorkers != 1 || res.Batches[1].AvailableWorkers != 1 {
		t.Error("worker should wait through its patience window")
	}
	if res.Batches[2].AvailableWorkers != 0 {
		t.Errorf("worker still present after patience expired: %+v", res.Batches[2])
	}
	// Without patience the worker waits forever.
	res2, err := Run(context.Background(), Config{
		Solver: assign.NewTPG(), Rounds: 4, B: 3,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DepartedWorkers != 0 || res2.Batches[3].AvailableWorkers != 1 {
		t.Error("patience=0 should keep workers indefinitely")
	}
}

func TestPatienceReducesScoreButModelsChurn(t *testing.T) {
	// Tight patience can only reduce (or keep) the achievable score: fewer
	// workers accumulate.
	srcA := uniformSource(40, 15, 5, 21)
	patient, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 5, B: 3}, srcA)
	if err != nil {
		t.Fatal(err)
	}
	srcB := uniformSource(40, 15, 5, 21)
	churn, err := Run(context.Background(), Config{Solver: assign.NewTPG(), Rounds: 5, B: 3, Patience: 1}, srcB)
	if err != nil {
		t.Fatal(err)
	}
	if churn.TotalScore > patient.TotalScore+1e-9 {
		t.Errorf("churn run scored %v above patient run %v", churn.TotalScore, patient.TotalScore)
	}
	if churn.DepartedWorkers == 0 {
		t.Error("patience=1 departed nobody")
	}
}

// TestBudgetedRoundsCompleteUnderFullChaos is the engine-level version of
// the acceptance criterion: with 100% rung-failure injection and a 50ms
// round budget, every round completes on the feasibility floor, tasks
// carry over as pending, and the ladder fallback counter moves.
func TestBudgetedRoundsCompleteUnderFullChaos(t *testing.T) {
	src := uniformSource(60, 15, 5, 3)
	reg := metrics.NewRegistry()
	res, err := Run(context.Background(), Config{
		Solver:      assign.NewTPG(),
		Rounds:      5,
		B:           3,
		Metrics:     reg,
		Seed:        7,
		RoundBudget: 50 * time.Millisecond,
		Chaos:       &resilience.ChaosConfig{FailRate: 1},
	}, src)
	if err != nil {
		t.Fatalf("Run under full chaos: %v", err)
	}
	if len(res.Batches) != 5 {
		t.Fatalf("completed %d rounds, want 5", len(res.Batches))
	}
	if res.DispatchedTasks != 0 || res.TotalScore != 0 {
		t.Fatalf("full chaos dispatched %d tasks (score %v); every rung should fail",
			res.DispatchedTasks, res.TotalScore)
	}
	var fallbacks uint64
	for _, rung := range []string{"TPG", "RAND"} {
		fallbacks += reg.Counter(resilience.MetricLadderFallbacks, "",
			metrics.L("solver", "TPG"), metrics.L("rung", rung),
			metrics.L("reason", resilience.ReasonError)).Value()
	}
	if fallbacks == 0 {
		t.Error("casc_ladder_fallback_total stayed 0 under full chaos")
	}
	// Undispatched tasks carried over until their deadlines: 15 tasks per
	// round, 3-round deadlines, so rounds 0-1 tasks expired by round 4.
	if res.ExpiredTasks == 0 {
		t.Error("no tasks expired; carry-over semantics not exercised")
	}
}

// TestBudgetedRoundsMatchUnbudgetedWhenFast proves the ladder is invisible
// when the primary rung finishes in budget: identical result to a plain
// run, round for round.
func TestBudgetedRoundsMatchUnbudgetedWhenFast(t *testing.T) {
	plain, err := Run(context.Background(), Config{
		Solver: assign.NewTPG(), Rounds: 5, B: 3,
	}, uniformSource(60, 15, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := Run(context.Background(), Config{
		Solver: assign.NewTPG(), Rounds: 5, B: 3,
		RoundBudget: time.Hour,
	}, uniformSource(60, 15, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalScore != budgeted.TotalScore || plain.DispatchedTasks != budgeted.DispatchedTasks {
		t.Fatalf("budgeted run diverged: score %v vs %v, dispatched %d vs %d",
			budgeted.TotalScore, plain.TotalScore, budgeted.DispatchedTasks, plain.DispatchedTasks)
	}
}
