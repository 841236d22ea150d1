package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	"casc/internal/shard"
	"casc/internal/workload"
)

// ExpShards is the sharded-platform load test: the same skewed blob
// workload (workload.GenerateBlobs — contention confined to a hot band of
// the unit square) driven through shard.Cluster at K ∈ {1, 2, 4, 8},
// measuring end-to-end batch-round latency. K = 1 is the monolithic
// baseline; the committed bench/BENCH_shards.json (at -scale 0.1, diffed
// in CI) documents the speedup (and, by the equal per-K scores, the
// bitwise round equivalence): the win is algorithmic — per-shard solves
// dodge the global best-response round coupling and stage-one rescans —
// not parallelism.
const ExpShards = "shards"

// ShardCounts is the load-test sweep.
var ShardCounts = []int{1, 2, 4, 8}

// runShards drives R batch rounds per shard count over a skewed
// 100k-worker blob workload (scaled by opt.Scale). Registration, task
// posting and ratings are untimed; each RunBatch is one latency sample.
func runShards(ctx context.Context, opt Options) (*Series, error) {
	series := &Series{Experiment: ExpShards, Figure: "Load test", XLabel: "shards K"}
	params := workload.BlobParams{NumWorkers: opt.scaled(100000), Seed: opt.Seed}.WithBlobDefaults()
	var baseScore float64
	for i, k := range ShardCounts {
		pt, score, err := runShardPoint(ctx, opt, params, k)
		if err != nil {
			return series, err
		}
		if i == 0 {
			baseScore = score
		} else if math.Float64bits(score) != math.Float64bits(baseScore) {
			return series, fmt.Errorf("harness: K=%d total score %v diverges from K=1 score %v — shard equivalence broken",
				k, score, baseScore)
		}
		series.Points = append(series.Points, pt)
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "point K=%d done\n", k)
		}
	}
	return series, nil
}

func runShardPoint(ctx context.Context, opt Options, params workload.BlobParams, k int) (Point, float64, error) {
	pt := Point{Label: fmt.Sprintf("%d", k)}
	c, err := shard.NewCluster(shard.Config{
		K: k, B: params.B, Metrics: opt.Metrics, SolveBudget: opt.Budget,
	})
	if err != nil {
		return pt, 0, err
	}
	w := workload.GenerateBlobs(params)
	for _, wk := range w.Workers {
		if _, err := c.RegisterWorker(wk.Loc, wk.Speed, wk.Radius); err != nil {
			return pt, 0, err
		}
	}
	res := SolverResult{Name: "GT"}
	var totalScore float64
	for round := 0; round < opt.Rounds; round++ {
		if ctx.Err() != nil {
			return pt, 0, ctx.Err()
		}
		// Repost the round's tasks; the short relative deadline expires
		// last round's leftovers, keeping the open set bounded.
		for _, t := range w.Tasks {
			if _, err := c.PostTask(t.Loc, t.Capacity, c.Now()+t.Deadline); err != nil {
				return pt, 0, err
			}
		}
		start := time.Now()
		r, err := c.RunBatch(ctx, "GT")
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return pt, 0, fmt.Errorf("harness: K=%d round %d: %w", k, round, err)
		}
		res.Score += r.Score
		totalScore += r.Score
		pt.Upper += r.Upper
		res.BatchSeconds += elapsed / float64(opt.Rounds)
		res.LatencySeconds = append(res.LatencySeconds, elapsed)
		// Rate every dispatched task so later rounds solve against a
		// populated cooperation history (rating values are exactly
		// representable, keeping cross-shard aggregation order-free).
		rated := map[int]bool{}
		for _, p := range r.Pairs {
			if rated[p.Task] {
				continue
			}
			rated[p.Task] = true
			score := 0.5
			if p.Task%2 == 1 {
				score = 1.0
			}
			if err := c.RateTask(p.Task, score); err != nil {
				return pt, 0, err
			}
		}
	}
	pt.Results = []SolverResult{res}
	return pt, totalScore, nil
}
