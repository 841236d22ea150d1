package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// This file emits the machine-readable bench trajectory: one
// BENCH_<experiment>.json per experiment, so every bench run adds a perf
// datapoint future PRs can diff against.

// BenchEntry is one (sweep point, solver) datapoint.
type BenchEntry struct {
	Experiment string  `json:"experiment"`
	Figure     string  `json:"figure,omitempty"`
	X          string  `json:"x"`
	Solver     string  `json:"solver"`
	N          int     `json:"n"` // solve samples behind the latency stats
	Score      float64 `json:"score"`
	Upper      float64 `json:"upper,omitempty"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	// AllocsPerOp is the steady-state heap allocation count per solve
	// (minimum Mallocs delta over the rounds). Present only when the run
	// recorded allocations (-benchmem or the paperscale experiment); a nil
	// pointer distinguishes "not measured" from a genuine zero.
	AllocsPerOp *uint64 `json:"allocs_per_op,omitempty"`
	// Regret is the mean per-round counterfactual regret recorded by the
	// scenario experiment. Deterministic like Score, so DiffAgainst gates
	// it bitwise wherever the baseline carries it; nil means the run did
	// no decision tracing.
	Regret *float64 `json:"regret,omitempty"`
}

// BenchFile is the top-level BENCH_<experiment>.json document.
type BenchFile struct {
	Experiment string  `json:"experiment"`
	Figure     string  `json:"figure,omitempty"`
	XLabel     string  `json:"x_label"`
	Rounds     int     `json:"rounds"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	// BudgetMS records the per-solve ladder budget in milliseconds (0:
	// unbudgeted), so score-vs-budget sweeps are distinguishable in the
	// perf trajectory.
	BudgetMS float64 `json:"budget_ms,omitempty"`
	// Incremental records an engine-only run (Options.Incremental): its
	// files lack the from-scratch baseline entries and must not be diffed
	// against dual-mode baselines.
	Incremental bool `json:"incremental,omitempty"`
	// Arena and Benchmem record the scratch-reuse and allocation-tracking
	// modes of the run, so arena-warm baselines are distinguishable from
	// cold-scratch ones in the perf trajectory. Benchmem is set whenever
	// any entry carries allocs_per_op, however it was recorded.
	Arena    bool         `json:"arena,omitempty"`
	Benchmem bool         `json:"benchmem,omitempty"`
	Entries  []BenchEntry `json:"entries"`
}

// quantile returns the q-quantile of the samples by linear interpolation
// between order statistics; 0 with no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// BenchEntries flattens the series into per-(point, solver) datapoints.
func (s *Series) BenchEntries() []BenchEntry {
	var out []BenchEntry
	for _, pt := range s.Points {
		for _, r := range pt.Results {
			const toMS = 1e3
			e := BenchEntry{
				Experiment: s.Experiment,
				Figure:     s.Figure,
				X:          pt.Label,
				Solver:     r.Name,
				N:          len(r.LatencySeconds),
				Score:      r.Score,
				Upper:      pt.Upper,
				MeanMS:     mean(r.LatencySeconds) * toMS,
				P50MS:      quantile(r.LatencySeconds, 0.50) * toMS,
				P95MS:      quantile(r.LatencySeconds, 0.95) * toMS,
			}
			if n, ok := r.AllocsPerOp(); ok {
				e.AllocsPerOp = &n
			}
			if r.Regret != nil {
				v := *r.Regret
				e.Regret = &v
			}
			out = append(out, e)
		}
	}
	return out
}

// BenchFile assembles the JSON document for this series.
func (s *Series) BenchFile(opt Options) *BenchFile {
	opt = opt.withDefaults()
	b := &BenchFile{
		Experiment:  s.Experiment,
		Figure:      s.Figure,
		XLabel:      s.XLabel,
		Rounds:      opt.Rounds,
		Seed:        opt.Seed,
		Scale:       opt.Scale,
		BudgetMS:    float64(opt.Budget) / float64(time.Millisecond),
		Incremental: opt.Incremental,
		Arena:       opt.Arena,
		Benchmem:    opt.Benchmem,
		Entries:     s.BenchEntries(),
	}
	// Some experiments (paperscale) record allocations regardless of the
	// flag; mark the file so readers and DiffAgainst treat it as measured.
	for _, e := range b.Entries {
		if e.AllocsPerOp != nil {
			b.Benchmem = true
			break
		}
	}
	return b
}

// LoadBench reads the committed BENCH_<experiment>.json baseline from dir.
func LoadBench(dir, experiment string) (*BenchFile, error) {
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", experiment))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var b BenchFile
	if err := json.NewDecoder(f).Decode(&b); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return &b, nil
}

// Latency regression tolerances for DiffAgainst. Scores are deterministic
// for a fixed (seed, scale, rounds) configuration and must match exactly;
// latencies depend on the machine, so a fresh run only fails when it is
// implausibly slower than the committed baseline.
const (
	// DiffLatencyFactor is the multiple of the baseline latency a fresh
	// run may reach before the diff fails.
	DiffLatencyFactor = 5.0
	// DiffLatencyFloorMS absorbs noise on sub-millisecond baselines where
	// a pure factor would trip on scheduler jitter.
	DiffLatencyFloorMS = 50.0
)

// DiffAllocFloor absorbs runtime-internal allocation jitter (GC pacing
// puts a handful of runtime mallocs inside some solve windows, varying run
// to run) on near-zero baselines, the alloc analogue of
// DiffLatencyFloorMS. It is far below the thousands of allocs/op a lost
// arena path would reintroduce, so the gate still catches real
// regressions.
const DiffAllocFloor = 16

// allocLimit is the highest steady-state allocs/op a fresh run may report
// against a baseline of `want` before the diff fails: 12.5% proportional
// headroom plus the absolute jitter floor.
func allocLimit(want uint64) uint64 {
	return want + want/8 + DiffAllocFloor
}

// DiffAgainst compares a fresh bench run to a committed baseline: the
// configurations must agree, every (sweep point, solver) datapoint must be
// present, scores (and upper bounds) must match bitwise, mean/p95
// latencies must stay under DiffLatencyFactor× the baseline (plus
// DiffLatencyFloorMS), and wherever the baseline recorded allocs/op the
// fresh run must have measured them and stay within allocLimit. Arena mode
// is deliberately absent from the config check: arenas are
// output-preserving, so a mismatch surfaces as an alloc or latency
// regression, not a config error. It returns an error describing the first
// few mismatches, nil when the run is clean.
func (b *BenchFile) DiffAgainst(base *BenchFile) error {
	var errs []string
	fail := func(format string, args ...any) {
		if len(errs) < 10 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	if b.Experiment != base.Experiment {
		fail("experiment %q != baseline %q", b.Experiment, base.Experiment)
	}
	if b.Rounds != base.Rounds || b.Seed != base.Seed || b.Scale != base.Scale ||
		b.BudgetMS != base.BudgetMS || b.Incremental != base.Incremental {
		fail("run config (rounds=%d seed=%d scale=%v budget=%vms) != baseline (rounds=%d seed=%d scale=%v budget=%vms); regenerate the baseline or fix the flags",
			b.Rounds, b.Seed, b.Scale, b.BudgetMS,
			base.Rounds, base.Seed, base.Scale, base.BudgetMS)
	}
	type key struct{ x, solver string }
	fresh := make(map[key]BenchEntry, len(b.Entries))
	for _, e := range b.Entries {
		fresh[key{e.X, e.Solver}] = e
	}
	for _, want := range base.Entries {
		got, ok := fresh[key{want.X, want.Solver}]
		if !ok {
			fail("datapoint (%s=%s, %s) missing from fresh run", b.XLabel, want.X, want.Solver)
			continue
		}
		if got.Score != want.Score {
			fail("(%s=%s, %s) score %v != baseline %v", b.XLabel, want.X, want.Solver, got.Score, want.Score)
		}
		if got.Upper != want.Upper {
			fail("(%s=%s, %s) upper %v != baseline %v", b.XLabel, want.X, want.Solver, got.Upper, want.Upper)
		}
		if lim := want.P95MS*DiffLatencyFactor + DiffLatencyFloorMS; got.P95MS > lim {
			fail("(%s=%s, %s) p95 %.1fms exceeds %.1fms (baseline %.1fms × %v + %vms)",
				b.XLabel, want.X, want.Solver, got.P95MS, lim, want.P95MS, DiffLatencyFactor, DiffLatencyFloorMS)
		}
		if lim := want.MeanMS*DiffLatencyFactor + DiffLatencyFloorMS; got.MeanMS > lim {
			fail("(%s=%s, %s) mean %.1fms exceeds %.1fms (baseline %.1fms × %v + %vms)",
				b.XLabel, want.X, want.Solver, got.MeanMS, lim, want.MeanMS, DiffLatencyFactor, DiffLatencyFloorMS)
		}
		if want.Regret != nil {
			switch {
			case got.Regret == nil:
				fail("(%s=%s, %s) baseline gates regret (%v) but fresh run did not measure it",
					b.XLabel, want.X, want.Solver, *want.Regret)
			case *got.Regret != *want.Regret:
				fail("(%s=%s, %s) regret %v != baseline %v", b.XLabel, want.X, want.Solver, *got.Regret, *want.Regret)
			}
		}
		if want.AllocsPerOp != nil {
			switch {
			case got.AllocsPerOp == nil:
				fail("(%s=%s, %s) baseline gates allocs/op (%d) but fresh run did not measure them; rerun with -benchmem",
					b.XLabel, want.X, want.Solver, *want.AllocsPerOp)
			case *got.AllocsPerOp > allocLimit(*want.AllocsPerOp):
				fail("(%s=%s, %s) allocs/op %d exceeds %d (baseline %d)",
					b.XLabel, want.X, want.Solver, *got.AllocsPerOp, allocLimit(*want.AllocsPerOp), *want.AllocsPerOp)
			}
		}
	}
	if len(b.Entries) > len(base.Entries) {
		fail("fresh run has %d datapoints, baseline %d — commit a regenerated baseline", len(b.Entries), len(base.Entries))
	}
	if errs != nil {
		return fmt.Errorf("bench diff vs baseline failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// WriteBench writes the document as indented JSON.
func (b *BenchFile) WriteBench(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(b)
}

// SaveBench writes BENCH_<experiment>.json into dir and returns the path.
func (b *BenchFile) SaveBench(dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", b.Experiment))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := b.WriteBench(f); err != nil {
		return "", err
	}
	return path, f.Close()
}
