package shard

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"casc/internal/geo"
	"casc/internal/model"
)

// incRoundTrace is one round's full observable outcome, compared between
// the snapshot and incremental round assemblies, shard registries included.
type incRoundTrace struct {
	Pairs      []model.Pair
	ScoreBits  uint64
	UpperBits  uint64
	Dispatched int
	Expired    int
	Components int
	Border     int
	Ghosts     int
	Shards     []ShardStatus // after the round's commit
}

// driveIncremental runs a seeded workload with churn — registrations and
// posts every round, mixed deadlines so some tasks expire undispatched,
// and ratings that re-home dispatched workers — and returns per-round
// traces plus final quality samples.
func driveIncremental(t *testing.T, seed int64, solver string, opts ...func(*Config)) ([]incRoundTrace, []uint64) {
	t.Helper()
	c := newTestCluster(t, 4, opts...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 70; i++ {
		if _, err := c.RegisterWorker(geo.Pt(rng.Float64(), rng.Float64()), 0.05, 0.15); err != nil {
			t.Fatal(err)
		}
	}
	var traces []incRoundTrace
	for round := 0; round < 6; round++ {
		for j := 0; j < 10; j++ {
			// Half the tasks get a deadline too tight to survive past the
			// next round, forcing the expiry path to stay equivalent too.
			horizon := 1.5
			if j%2 == 0 {
				horizon = 4.5
			}
			if _, err := c.PostTask(geo.Pt(rng.Float64(), rng.Float64()), 3+rng.Intn(3), c.clock()+horizon); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.RunBatch(context.Background(), solver)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tr := incRoundTrace{
			ScoreBits:  math.Float64bits(res.Score),
			UpperBits:  math.Float64bits(res.Upper),
			Dispatched: res.DispatchedTasks,
			Expired:    res.ExpiredTasks,
			Components: res.Components,
			Border:     res.BorderComponents,
			Ghosts:     res.GhostWorkers,
			Shards:     c.Status().PerShard,
		}
		tr.Pairs = append(tr.Pairs, res.Pairs...)
		traces = append(traces, tr)
		// Rate every other dispatched task so some workers re-home between
		// rounds while others stay busy across several rounds.
		rated := map[int]bool{}
		for _, p := range res.Pairs {
			if rated[p.Task] || p.Task%2 == 0 {
				continue
			}
			rated[p.Task] = true
			if err := c.RateTask(p.Task, 0.5+0.5*float64(p.Task%2)); err != nil {
				t.Fatalf("rate task %d: %v", p.Task, err)
			}
		}
	}
	var qs []uint64
	n := int(c.nextWorkerID.Load())
	for i := 0; i < 12; i++ {
		a, b := (i*7)%n, (i*13+1)%n
		if a == b {
			continue
		}
		q, err := c.Quality(a, b)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, math.Float64bits(q))
	}
	return traces, qs
}

// TestIncrementalClusterMatchesSnapshot is the shard tier's incremental
// guarantee: a cluster maintaining its candidate graph in the persistent
// engine commits bitwise-identical rounds to one rebuilding it from shard
// snapshots — same pairs, scores, uppers, expiry counts, components, and
// final quality estimates — under churn, expiry, and rating re-homes.
func TestIncrementalClusterMatchesSnapshot(t *testing.T) {
	for _, solver := range []string{"TPG", "GT", "GT+LUB"} {
		for _, seed := range []int64{3, 77} {
			base, baseQ := driveIncremental(t, seed, solver)
			dispatched, expired := 0, 0
			for _, tr := range base {
				dispatched += tr.Dispatched
				expired += tr.Expired
			}
			if dispatched == 0 || expired == 0 {
				t.Fatalf("%s seed %d: workload dispatched %d, expired %d; the test is vacuous",
					solver, seed, dispatched, expired)
			}
			got, gotQ := driveIncremental(t, seed, solver, func(cfg *Config) { cfg.Incremental = true })
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s seed %d: incremental rounds diverge from snapshot\n snapshot:    %+v\n incremental: %+v",
					solver, seed, base, got)
			}
			if !reflect.DeepEqual(baseQ, gotQ) {
				t.Errorf("%s seed %d: final qualities diverge", solver, seed)
			}
		}
	}
}

// TestIncrementalClusterUnderGenerousBudget checks the ladder path: with a
// budget no rung can overrun, budgeted incremental rounds still match the
// budgeted snapshot rounds bitwise.
func TestIncrementalClusterUnderGenerousBudget(t *testing.T) {
	budget := func(cfg *Config) { cfg.SolveBudget = time.Minute }
	base, baseQ := driveIncremental(t, 9, "TPG", budget)
	got, gotQ := driveIncremental(t, 9, "TPG", budget, func(cfg *Config) { cfg.Incremental = true })
	if !reflect.DeepEqual(base, got) {
		t.Errorf("budgeted incremental rounds diverge from snapshot\n snapshot:    %+v\n incremental: %+v", base, got)
	}
	if !reflect.DeepEqual(baseQ, gotQ) {
		t.Error("budgeted final qualities diverge")
	}
}
