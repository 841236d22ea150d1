package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"casc/internal/assign"
	"casc/internal/batch"
	"casc/internal/model"
)

// spec mirrors the parts of BENCHMARK.json the tests hold the code to.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short runs a workload briefly: a dozen timed rounds or ticks.
func short(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := workloads[workload](options{workload: workload, seed: seed, seconds: 1, trace: trace, spanDir: t.TempDir(), timed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%s seed %d trace %v: output checks failed: %v", workload, seed, trace, rep.failures)
	}
	return rep
}

func metricNames(rep *report) []string {
	var out []string
	for _, m := range rep.metrics {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func specNames(list []struct{ Name string }) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func metricValue(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

// TestWorkloadsReportDeclaredMetrics runs every workload of BENCHMARK.json
// untraced and traced: the output checks pass and each mode prints exactly
// the metrics the file declares for it.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("no workload %q", w.Name)
			}
			for _, trace := range []bool{false, true} {
				want := specNames(s.EndToEnd)
				if trace {
					want = specNames(s.PerLayer)
				}
				if got := metricNames(short(t, w.Name, 3, trace)); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("trace %v: metrics\n got %v\nwant %v", trace, got, want)
				}
			}
		})
	}
}

// TestScoresRepeatBitwise: two runs with one seed agree to the bit on the
// quality metrics, whatever the timings did.
func TestScoresRepeatBitwise(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := short(t, name, 11, false), short(t, name, 11, false)
			for _, m := range []string{"score_per_task", "dispatched_ratio"} {
				x, y := metricValue(t, a, m), metricValue(t, b, m)
				if math.Float64bits(x) != math.Float64bits(y) || x == 0 {
					t.Errorf("%s: %v then %v", m, x, y)
				}
			}
		})
	}
}

// TestChurnIncrementalMatchesScratch: on the churn inputs the incremental
// engine scores every round exactly as a from-scratch batch.Run.
func TestChurnIncrementalMatchesScratch(t *testing.T) {
	const rounds = 30
	f := churnFeed(5, rounds)
	src := &batch.GeneratorSource{
		WorkersFn: func(r int) []model.Worker { return f.workers[r] },
		TasksFn:   func(r int) []model.Task { return f.tasks[r] },
		Model:     f.quality,
	}
	run := func(incremental bool) *batch.Result {
		res, err := batch.Run(context.Background(), batch.Config{
			Solver: assign.NewGT(assign.GTOptions{}), Rounds: rounds, B: churnB, Incremental: incremental,
		}, src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, scratch := run(true), run(false)
	dispatched := 0
	for r := range scratch.Batches {
		a, b := inc.Batches[r], scratch.Batches[r]
		if math.Float64bits(a.Score) != math.Float64bits(b.Score) || a.DispatchedTasks != b.DispatchedTasks {
			t.Fatalf("round %d: incremental %v/%d, scratch %v/%d", r, a.Score, a.DispatchedTasks, b.Score, b.DispatchedTasks)
		}
		dispatched += b.DispatchedTasks
	}
	if dispatched == 0 || inc.ExpiredTasks != scratch.ExpiredTasks {
		t.Fatalf("dispatched %d, expired %d vs %d", dispatched, inc.ExpiredTasks, scratch.ExpiredTasks)
	}
}

// TestChecksCatchWrongScores: the output checks flag a round or batch
// whose reported score is off by one ulp.
func TestChecksCatchWrongScores(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		rep := &report{}
		b := &batchRun{spec: streamScratch, f: streamFeed(2, 20), rounds: 20, timedFrom: 5, tracedFrom: 21, rep: rep}
		res, err := b.execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if b.check(res); len(rep.failures) != 0 {
			t.Fatalf("clean run failed its checks: %v", rep.failures)
		}
		res.Batches[10].Score = math.Nextafter(res.Batches[10].Score, math.Inf(1))
		if b.check(res); len(rep.failures) != 1 {
			t.Fatalf("tampered score: failures %v", rep.failures)
		}
	})
	t.Run("serve", func(t *testing.T) {
		g, _, err := setUp(serveFeed(2, serveWarmTicks))
		if err != nil {
			t.Fatal(err)
		}
		rep := &report{}
		if verify(g, rep); len(rep.failures) != 0 {
			t.Fatalf("clean run failed its checks: %v", rep.failures)
		}
		last := len(g.log) - 1
		for g.log[last].kind != reqBatch {
			last--
		}
		g.log[last].batch.Score += 1e-6
		if verify(g, rep); len(rep.failures) != 1 {
			t.Fatalf("tampered score: failures %v", rep.failures)
		}
	})
}

// TestUsageErrorPrintsNoResult: a bad invocation exits 2 with no JSON line.
func TestUsageErrorPrintsNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
