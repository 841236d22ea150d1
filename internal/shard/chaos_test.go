package shard

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"casc/internal/geo"
	"casc/internal/resilience"
	"casc/internal/server"
)

// chaosSeeds mirrors the resilience suite's convention: a fixed seed set,
// extended by the CI chaos matrix through CASC_CHAOS_SEED.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds := []int64{1, 7, 1337}
	if env := os.Getenv("CASC_CHAOS_SEED"); env != "" {
		s, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CASC_CHAOS_SEED=%q: %v", env, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestClusterChaosRounds drives a 4-shard cluster through batch rounds
// with fault injection on every ladder rung. Rounds either complete with a
// consistent dispatch or fail all-or-nothing with server.ErrBudgetExhausted;
// either way the registries stay balanced (every worker is available or
// busy, never lost), which is the property chaos is most likely to break.
func TestClusterChaosRounds(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			c := newTestCluster(t, 4, func(cfg *Config) {
				cfg.SolveBudget = 2 * time.Second
				cfg.Chaos = &resilience.ChaosConfig{
					Seed:         seed,
					FailRate:     0.4,
					TruncateRate: 0.3,
					TruncateFrac: 0.5,
				}
			})
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				if _, err := c.RegisterWorker(geo.Pt(rng.Float64(), rng.Float64()), 0.05, 0.15); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 4; round++ {
				for j := 0; j < 8; j++ {
					if _, err := c.PostTask(geo.Pt(rng.Float64(), rng.Float64()), 3, c.clock()+3); err != nil {
						t.Fatal(err)
					}
				}
				res, err := c.RunBatch(context.Background(), "GT")
				if errors.Is(err, server.ErrBudgetExhausted) {
					// Every rung of some shard's ladder was killed by the
					// injected faults: an all-or-nothing no-op round.
					continue
				}
				if err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
				rated := map[int]bool{}
				for _, p := range res.Pairs {
					if rated[p.Task] {
						continue
					}
					rated[p.Task] = true
					if err := c.RateTask(p.Task, 1.0); err != nil {
						t.Fatal(err)
					}
				}
				st := c.Status()
				if got := st.AvailableWorkers + st.BusyWorkers; got != int(c.nextWorkerID.Load()) {
					t.Fatalf("seed %d round %d: %d workers accounted, want %d",
						seed, round, got, c.nextWorkerID.Load())
				}
			}
		})
	}
}

// TestClusterBudgetExhaustion forces a hopeless budget and checks the
// round fails closed: server.ErrBudgetExhausted, nothing dispatched, registries
// untouched.
func TestClusterBudgetExhaustion(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *Config) {
		cfg.SolveBudget = time.Nanosecond
	})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		if _, err := c.RegisterWorker(geo.Pt(rng.Float64(), rng.Float64()), 0.05, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 10; j++ {
		if _, err := c.PostTask(geo.Pt(rng.Float64(), rng.Float64()), 3, 5); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := c.RunBatch(ctx, "GT")
	if !errors.Is(err, server.ErrBudgetExhausted) {
		t.Fatalf("RunBatch with expired deadline: %v, want server.ErrBudgetExhausted", err)
	}
	st := c.Status()
	if st.BusyWorkers != 0 || st.AvailableWorkers != 30 || st.OpenTasks != 10 {
		t.Errorf("failed round mutated state: %+v", st)
	}
}
