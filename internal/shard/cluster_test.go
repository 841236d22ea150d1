package shard

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"casc/internal/geo"
	"casc/internal/model"
	"casc/internal/resilience"
)

// newTestCluster builds a K-shard cluster with test-friendly defaults.
func newTestCluster(t *testing.T, k int, opts ...func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{K: k, B: 3, Alpha: 0.5, Omega: 0.5}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// roundTrace is one round's observable outcome, compared across shard
// counts: the dispatched pairs and the bitwise score.
type roundTrace struct {
	Pairs     []model.Pair
	ScoreBits uint64
	UpperBits uint64
	Disp      int
}

// driveCluster runs the same seeded multi-round workload against a
// K-shard cluster and returns the per-round traces plus a sample of final
// quality estimates. Ratings use only 0.5 and 1.0 — exactly representable,
// so per-pair history sums are independent of which shard accumulated them.
func driveCluster(t *testing.T, k int, seed int64, solver string) ([]roundTrace, []uint64) {
	t.Helper()
	c := newTestCluster(t, k)
	rng := rand.New(rand.NewSource(seed))
	const m = 60
	for i := 0; i < m; i++ {
		if _, err := c.RegisterWorker(geo.Pt(rng.Float64(), rng.Float64()), 0.05, 0.15); err != nil {
			t.Fatal(err)
		}
	}
	var traces []roundTrace
	for round := 0; round < 3; round++ {
		for j := 0; j < 15; j++ {
			_, err := c.PostTask(geo.Pt(rng.Float64(), rng.Float64()), 3+rng.Intn(3), c.clock()+2.5)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.RunBatch(context.Background(), solver)
		if err != nil {
			t.Fatalf("K=%d round %d: %v", k, round, err)
		}
		traces = append(traces, roundTrace{
			Pairs:     res.Pairs,
			ScoreBits: math.Float64bits(res.Score),
			UpperBits: math.Float64bits(res.Upper),
			Disp:      res.DispatchedTasks,
		})
		// Rate every dispatched task in ascending task order so the rating
		// sequence is identical for every K. The rating value depends only
		// on the task ID.
		rated := map[int]bool{}
		for _, p := range res.Pairs {
			if rated[p.Task] {
				continue
			}
			rated[p.Task] = true
			score := 0.5
			if p.Task%2 == 1 {
				score = 1.0
			}
			if err := c.RateTask(p.Task, score); err != nil {
				t.Fatalf("K=%d rate task %d: %v", k, p.Task, err)
			}
		}
	}
	var qs []uint64
	n := int(c.nextWorkerID.Load())
	for i := 0; i < 10; i++ {
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

// TestShardCountInvariance is the subsystem's core guarantee: for the
// decomposition-invariant solver family, an N-shard cluster commits
// bitwise-identical rounds to a 1-shard (monolithic) cluster on the same
// seed — same pairs, same scores, same upper bounds, same resulting
// quality estimates. The workload rates tasks between rounds, so later
// rounds exercise the history-backed quality model whose exact ties are
// the hardest part of the guarantee.
func TestShardCountInvariance(t *testing.T) {
	for _, solver := range []string{"GT", "TPG", "GT+LUB"} {
		for _, seed := range []int64{1, 42, 2019} {
			base, baseQ := driveCluster(t, 1, seed, solver)
			dispatched := 0
			for _, tr := range base {
				dispatched += tr.Disp
			}
			if dispatched == 0 {
				t.Fatalf("%s seed %d: workload dispatched nothing; the test is vacuous", solver, seed)
			}
			for _, k := range []int{2, 3, 4, 8} {
				got, gotQ := driveCluster(t, k, seed, solver)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%s seed %d: K=%d rounds diverge from K=1\n K=1: %+v\n K=%d: %+v",
						solver, seed, k, base, k, got)
				}
				if !reflect.DeepEqual(baseQ, gotQ) {
					t.Errorf("%s seed %d: K=%d final qualities diverge from K=1", solver, seed, k)
				}
			}
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{K: 1, B: 1}); err == nil {
		t.Error("B=1 accepted")
	}
	if _, err := NewCluster(Config{K: 0, B: 3}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewCluster(Config{K: 2, B: 3, Chaos: &resilience.ChaosConfig{Seed: 1}}); err == nil {
		t.Error("chaos without a solve budget accepted")
	}
	c := newTestCluster(t, 2)
	if _, err := c.RegisterWorker(geo.Pt(0.5, 0.5), -1, 0.1); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := c.PostTask(geo.Pt(0.5, 0.5), 2, 5); err == nil {
		t.Error("capacity below B accepted")
	}
	if _, err := c.PostTask(geo.Pt(0.5, 0.5), 3, 0); err == nil {
		t.Error("past deadline accepted")
	}
	if err := c.RateTask(0, 0.5); err == nil {
		t.Error("rating an undispatched task accepted")
	}
	if err := c.RateTask(0, 1.5); err == nil {
		t.Error("rating outside [0,1] accepted")
	}
	if _, err := c.RunBatch(context.Background(), "NOPE"); err == nil {
		t.Error("unknown solver accepted")
	}
}

// TestRegionRoutingAndHandoff pins the ghost/handoff mechanics: a task on
// the boundary draws workers homed on both sides into one component, the
// component is pinned to the shard owning its lowest cell, and the rating
// re-homes every member at the task location — counting a handoff for each
// worker that crossed.
func TestRegionRoutingAndHandoff(t *testing.T) {
	c := newTestCluster(t, 2)
	// Shard 0 owns the lower half of the unit square, shard 1 the upper.
	low, _ := c.RegisterWorker(geo.Pt(0.5, 0.45), 0.05, 0.2)
	high1, _ := c.RegisterWorker(geo.Pt(0.5, 0.55), 0.05, 0.2)
	high2, _ := c.RegisterWorker(geo.Pt(0.52, 0.56), 0.05, 0.2)
	if got := c.shards[0].load(); got != 1 {
		t.Fatalf("shard 0 load = %d, want 1 (worker %d)", got, low)
	}
	if got := c.shards[1].load(); got != 2 {
		t.Fatalf("shard 1 load = %d, want 2 (workers %d,%d)", got, high1, high2)
	}
	taskID, err := c.PostTask(geo.Pt(0.5, 0.52), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunBatch(context.Background(), "GT")
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchedTasks != 1 || len(res.Pairs) != 3 {
		t.Fatalf("dispatched %d tasks / %d pairs, want 1/3", res.DispatchedTasks, len(res.Pairs))
	}
	if res.BorderComponents != 1 {
		t.Errorf("BorderComponents = %d, want 1", res.BorderComponents)
	}
	if res.GhostWorkers == 0 {
		t.Errorf("GhostWorkers = 0, want > 0 (component spans both shards)")
	}
	// The task at y=0.52 belongs to shard 1; rating it re-homes all three
	// workers there, handing off the shard-0 worker. A NaN rating is
	// rejected first and leaves the task unrated.
	if err := c.RateTask(taskID, math.NaN()); err == nil {
		t.Fatal("NaN rating accepted")
	}
	if err := c.RateTask(taskID, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := c.RateTask(taskID, 1.0); err == nil {
		t.Error("double rating accepted")
	}
	if got := c.shards[1].load(); got != 3 {
		t.Errorf("shard 1 load after rating = %d, want 3", got)
	}
	if got := c.shards[1].sm.handoffs.Value(); got != 1 {
		t.Errorf("handoffs = %d, want 1", got)
	}
	q, err := c.Quality(low, high1)
	if err != nil {
		t.Fatal(err)
	}
	// α·ω + (1−α)·1.0 with α=ω=0.5.
	if want := 0.75; q != want {
		t.Errorf("Quality(%d,%d) = %v, want %v", low, high1, q, want)
	}
	st := c.Status()
	if st.AvailableWorkers != 3 || st.BusyWorkers != 0 || st.DispatchedTasks != 1 {
		t.Errorf("status = %+v", st)
	}
	if len(st.PerShard) != 2 {
		t.Fatalf("PerShard has %d entries, want 2", len(st.PerShard))
	}
}

func TestClusterExpiry(t *testing.T) {
	c := newTestCluster(t, 4)
	if _, err := c.PostTask(geo.Pt(0.1, 0.1), 3, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBatch(context.Background(), "GT"); err != nil {
		t.Fatal(err)
	}
	// Clock advanced to 1 by the first round; the task expires next round.
	res, err := c.RunBatch(context.Background(), "GT")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredTasks != 1 {
		t.Errorf("ExpiredTasks = %d, want 1", res.ExpiredTasks)
	}
}

// TestClusterConcurrentHammer drives registrations, posts, reads and batch
// rounds from many goroutines at once; run under -race it is the shard
// tier's synchronization audit.
func TestClusterConcurrentHammer(t *testing.T) {
	c := newTestCluster(t, 4)
	const (
		writers  = 8
		perG     = 50
		batchers = 2
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				if rng.Intn(3) == 0 {
					_, _ = c.PostTask(geo.Pt(rng.Float64(), rng.Float64()), 3, c.clock()+5)
				} else {
					_, _ = c.RegisterWorker(geo.Pt(rng.Float64(), rng.Float64()), 0.05, 0.1)
				}
				_ = c.Status()
				_, _ = c.Quality(0, 1+i%7)
			}
		}(g)
	}
	done := make(chan struct{})
	var batchWG sync.WaitGroup
	for b := 0; b < batchers; b++ {
		batchWG.Add(1)
		go func() {
			defer batchWG.Done()
			for {
				select {
				case <-done:
					return
				default:
					if _, err := c.RunBatch(context.Background(), "GT"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	batchWG.Wait()
	st := c.Status()
	total := st.AvailableWorkers + st.BusyWorkers
	if want := int(c.nextWorkerID.Load()); total != want {
		t.Errorf("workers accounted = %d, want %d", total, want)
	}
}

func TestRegisterWorkerRejectsNonFinite(t *testing.T) {
	bad := []struct {
		name          string
		loc           geo.Point
		speed, radius float64
	}{
		{"NaN x", geo.Pt(math.NaN(), 0.5), 0.1, 0.2},
		{"NaN y", geo.Pt(0.5, math.NaN()), 0.1, 0.2},
		{"+Inf x", geo.Pt(math.Inf(1), 0.5), 0.1, 0.2},
		{"-Inf y", geo.Pt(0.5, math.Inf(-1)), 0.1, 0.2},
		{"NaN speed", geo.Pt(0.5, 0.5), math.NaN(), 0.2},
		{"+Inf speed", geo.Pt(0.5, 0.5), math.Inf(1), 0.2},
		{"negative speed", geo.Pt(0.5, 0.5), -1, 0.2},
		{"NaN radius", geo.Pt(0.5, 0.5), 0.1, math.NaN()},
		{"+Inf radius", geo.Pt(0.5, 0.5), 0.1, math.Inf(1)},
		{"negative radius", geo.Pt(0.5, 0.5), 0.1, -0.2},
	}
	for _, k := range []int{1, 3} {
		c := newTestCluster(t, k)
		for _, tc := range bad {
			if _, err := c.RegisterWorker(tc.loc, tc.speed, tc.radius); err == nil {
				t.Errorf("K=%d %s: accepted", k, tc.name)
			}
		}
		// Rejections consume no ID, reach no shard, and leave the cluster
		// able to run a batch.
		id, err := c.RegisterWorker(geo.Pt(0.5, 0.5), 0, 0)
		if err != nil || id != 0 {
			t.Fatalf("K=%d: first valid registration: id %d, err %v; want id 0", k, id, err)
		}
		if st := c.Status(); st.AvailableWorkers != 1 {
			t.Fatalf("K=%d: %d available workers, want 1", k, st.AvailableWorkers)
		}
		if _, err := c.RunBatch(context.Background(), "GT"); err != nil {
			t.Fatalf("K=%d: batch after rejected registrations: %v", k, err)
		}
	}
}

func TestPostTaskRejectsNonFinite(t *testing.T) {
	bad := []struct {
		name     string
		loc      geo.Point
		deadline float64
	}{
		{"NaN x", geo.Pt(math.NaN(), 0.5), 5},
		{"NaN y", geo.Pt(0.5, math.NaN()), 5},
		{"+Inf x", geo.Pt(math.Inf(1), 0.5), 5},
		{"-Inf y", geo.Pt(0.5, math.Inf(-1)), 5},
		{"NaN deadline", geo.Pt(0.5, 0.5), math.NaN()},
		{"+Inf deadline", geo.Pt(0.5, 0.5), math.Inf(1)},
		{"-Inf deadline", geo.Pt(0.5, 0.5), math.Inf(-1)},
	}
	for _, k := range []int{1, 3} {
		c := newTestCluster(t, k)
		for _, tc := range bad {
			if _, err := c.PostTask(tc.loc, 3, tc.deadline); err == nil {
				t.Errorf("K=%d %s: accepted", k, tc.name)
			}
		}
		// Rejections consume no ID, reach no shard, and leave the cluster
		// able to run a batch.
		id, err := c.PostTask(geo.Pt(0.5, 0.5), 3, 5)
		if err != nil || id != 0 {
			t.Fatalf("K=%d: first valid post: id %d, err %v; want id 0", k, id, err)
		}
		if st := c.Status(); st.OpenTasks != 1 {
			t.Fatalf("K=%d: %d open tasks, want 1", k, st.OpenTasks)
		}
		if _, err := c.RunBatch(context.Background(), "GT"); err != nil {
			t.Fatalf("K=%d: batch after rejected posts: %v", k, err)
		}
	}
}
