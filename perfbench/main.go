// Command perfbench is the repository benchmark. It drives the casc
// platform only through its public entry points — batch.Run with the
// benchmark's own Source, Solver wrapper and Observer, and the HTTP handler
// of server.Platform served in process — on one named workload, checks the
// program's outputs, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), closing with one JSON line:
//
//	go run . --workload stream-scratch --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and the layer map are described in README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spanDir  string
	// timed overrides the number of timed rounds (ticks for serve-http)
	// that --seconds implies; the tests use it to make short runs.
	timed int
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	streamScratch.name: func(o options) (*report, error) { return runBatchWorkload(streamScratch, o) },
	churnIncremental.name: func(o options) (*report, error) {
		return runBatchWorkload(churnIncremental, o)
	},
	serveHTTPName: runServeHTTP,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the workload and prints its report. It returns 0
// on success, 1 when an output check failed, and 2 on a usage error or a
// run that could not produce a result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+names())
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 10, "nominal measuring time; it fixes the amount of timed work")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	fs.StringVar(&opt.spanDir, "span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	w, ok := workloads[opt.workload]
	if !ok || opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", names())
		return 2
	}
	rep, err := w(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep.note("go %s, GOMAXPROCS %d, NumCPU %d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func names() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return fmt.Sprint(ns)
}
