// casc-bench regenerates the figures of the paper's experimental study
// (§VI). Each experiment sweeps one Table II parameter over R rounds and
// prints the two panels the paper plots — total cooperation score and batch
// running time — for TPG, GT, GT+LUB, GT+TSI, GT+ALL, MFLOW, RAND and the
// UPPER estimate.
//
// Usage:
//
//	casc-bench -exp capacity            # Figure 2 at paper scale
//	casc-bench -exp all -scale 0.2      # all figures, 20% scale
//	casc-bench -exp settings            # print the Table II grid
//	casc-bench -exp workers -csv        # CSV instead of aligned tables
//	casc-bench -exp workers -json       # also write BENCH_workers.json
//	casc-bench -exp all -metrics m.json # dump final metrics snapshot
//	casc-bench -exp all -cpuprofile cpu.pprof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"time"

	"casc/internal/harness"
	"casc/internal/metrics"
	"casc/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "casc-bench: %v\n", err)
		os.Exit(1)
	}
}

// run carries the whole program so deferred cleanup (the CPU profile stop
// in particular) survives error exits.
func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment: capacity|speed|radius|deadline|epsilon|workers|tasks|distribution|optgap|anytime|sources|paperscale|shards|incremental|scenario|all|extra|settings")
		rounds   = flag.Int("rounds", workload.DefaultRounds, "rounds R per sweep point")
		scale    = flag.Float64("scale", 1.0, "scale factor on m and n (1.0 = paper scale)")
		seed     = flag.Int64("seed", 1, "random seed")
		solvers  = flag.String("solvers", "", "comma-separated solver subset (default: all)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		chart    = flag.Bool("chart", false, "also render an ASCII chart per figure")
		quiet    = flag.Bool("quiet", false, "suppress progress lines")
		bjson    = flag.Bool("json", false, "write BENCH_<experiment>.json per experiment (solver, n, mean/p50/p95 latency, score)")
		jsonDir  = flag.String("json-dir", ".", "directory for BENCH_*.json files")
		diffDir  = flag.String("diff", "", "diff this run against the committed BENCH_<experiment>.json baselines in this directory (exact scores, bounded latency); non-zero exit on regression")
		metricsF = flag.String("metrics", "", "write the final metrics snapshot as JSON to this file")
		budget   = flag.Duration("budget", 0, "per-solve budget; overruns fall through the anytime ladder (solver → TPG → RAND → empty floor)")
		incr     = flag.Bool("incremental", false, "engine-only timing for -exp incremental: skip the from-scratch baseline and its bitwise comparison")
		arena    = flag.Bool("arena", false, "give each arena-capable solver a persistent scratch arena per sweep point (steady-state allocation-free solves; never changes scores)")
		benchmem = flag.Bool("benchmem", false, "record steady-state heap allocs per solve into the bench output and JSON (gated by -diff when the baseline has them)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	)
	flag.Parse()

	if *exp == "settings" {
		printSettings()
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	opt := harness.Options{
		Rounds: *rounds, Seed: *seed, Scale: *scale, Budget: *budget,
		Incremental: *incr, Arena: *arena, Benchmem: *benchmem,
	}
	if *solvers != "" {
		opt.Solvers = strings.Split(*solvers, ",")
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	reg := metrics.NewRegistry()
	if *metricsF != "" {
		opt.Metrics = reg
	}

	names := []string{*exp}
	switch *exp {
	case "all":
		names = harness.AllExperiments()
	case "extra":
		names = harness.ExtraExperiments()
	}
	for _, name := range names {
		start := time.Now()
		s, err := harness.Run(ctx, name, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *csv {
			if err := s.CSV(os.Stdout); err != nil {
				return err
			}
		} else {
			if err := s.Render(os.Stdout); err != nil {
				return err
			}
			if *chart {
				if err := s.Chart(os.Stdout); err != nil {
					return err
				}
			}
		}
		if *bjson {
			path, err := s.BenchFile(opt).SaveBench(*jsonDir)
			if err != nil {
				return err
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
		if *diffDir != "" {
			base, err := harness.LoadBench(*diffDir, name)
			if err != nil {
				return err
			}
			if err := s.BenchFile(opt).DiffAgainst(base); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "%s matches baseline %s/BENCH_%s.json\n", name, *diffDir, name)
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s finished in %s\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *metricsF != "" {
		if err := saveMetrics(*metricsF, reg); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsF)
		}
	}
	return nil
}

// saveMetrics dumps the registry snapshot as indented JSON.
func saveMetrics(path string, reg *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(reg.Snapshot()); err != nil {
		return err
	}
	return f.Close()
}

func printSettings() {
	fmt.Println("Table II — experimental settings (defaults in brackets)")
	fmt.Printf("%-38s %v\n", "capacity a_j of tasks:", workload.CapacityValues)
	fmt.Printf("%-38s %v (default [1,5])\n", "range [v-,v+] of worker speeds (%):", fmtRanges(workload.SpeedRanges))
	fmt.Printf("%-38s %v (default [5,10])\n", "range [r-,r+] of working areas (%):", fmtRanges(workload.RadiusRanges))
	fmt.Printf("%-38s %v (default 3)\n", "remaining time τ_j of tasks:", workload.RemainingTimes)
	fmt.Printf("%-38s %v (default 0.05)\n", "threshold parameter ε:", workload.EpsilonValues)
	fmt.Printf("%-38s %v (default 1000)\n", "number m of workers per round:", workload.WorkerCounts)
	fmt.Printf("%-38s %v (default 500)\n", "number n of tasks per round:", workload.TaskCounts)
	fmt.Printf("%-38s %d\n", "number R of total rounds:", workload.DefaultRounds)
	fmt.Printf("%-38s %d\n", "least required workers B:", workload.Default().B)
	fmt.Printf("%-38s a_j = %d\n", "default capacity:", workload.Default().Capacity)
}

func fmtRanges(rs [][2]float64) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("[%g,%g]", r[0]*100, r[1]*100)
	}
	return out
}
