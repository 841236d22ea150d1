// casc-server runs the CA-SC spatial crowdsourcing platform as an HTTP
// service: workers register, requesters post tasks and rate results, and
// POST /batch triggers a cooperation-aware assignment round with any of the
// paper's solvers. Ratings feed the Equation 1 quality estimator, so the
// platform's assignments improve as history accumulates. With -snapshot the
// platform state (including the rating history) is loaded at startup and
// saved on shutdown.
//
// With -shards N (N >= 1) the process serves the region-sharded cluster
// tier instead of the single platform: the unit square is split into N
// spatial shards, new workers and tasks are placed by the -router policy,
// and batch rounds decompose into validity-graph components pinned to the
// shard owning their lowest cell. -admission enables token-bucket load
// shedding on the mutating endpoints. -snapshot is not supported in
// sharded mode.
//
// Both tiers serve one HTTP front end (server.NewFront), so the shared
// routes and -pprof behave the same at every -shards value; the route
// table in docs/OPERATIONS.md §1 marks each route's tier.
//
// Usage:
//
//	casc-server -addr :8080 -b 3 -snapshot state.json
//	casc-server -addr :8080 -b 3 -shards 8 -router region -admission 200
//
//	curl -XPOST localhost:8080/workers -d '{"x":0.5,"y":0.5,"speed":0.05,"radius":0.2}'
//	curl -XPOST localhost:8080/tasks   -d '{"x":0.5,"y":0.5,"capacity":3,"deadline":5}'
//	curl -XPOST localhost:8080/batch   -d '{"solver":"GT+ALL"}'
//	curl -XPOST localhost:8080/ratings -d '{"task_id":0,"score":0.9}'
//	curl -XPUT  localhost:8080/workers/0 -d '{"x":0.7,"y":0.7,"speed":-1,"radius":-1}'
//	curl localhost:8080/status
//	curl localhost:8080/metrics
//	curl localhost:8080/snapshot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"casc/internal/server"
	"casc/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		b        = flag.Int("b", 3, "least required workers per task")
		alpha    = flag.Float64("alpha", 0.5, "Equation 1 mixing parameter α")
		omega    = flag.Float64("omega", 0.5, "Equation 1 base quality ω")
		snapshot = flag.String("snapshot", "", "state file: loaded at startup, saved on shutdown")
		pprofF   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		budget   = flag.Duration("budget", 0, "per-request solve deadline for POST /batch; exhaustion returns 503 + Retry-After")
		shards   = flag.Int("shards", 0, "spatial shard count; 0 serves the single unsharded platform")
		routerF  = flag.String("router", "region", "shard placement policy: region, round-robin or least-loaded")
		admitF   = flag.Float64("admission", 0, "token-bucket admission rate (requests/s) on mutating endpoints; 0 disables")
		admitB   = flag.Int("admission-burst", 0, "token-bucket burst capacity (0: ceil of -admission)")
		incr     = flag.Bool("incremental", false, "with -shards: maintain the candidate graph in the persistent incremental engine across batches (bitwise identical results)")
	)
	flag.Parse()

	var tier interface{ Handler() http.Handler }
	var p *server.Platform
	var shape string
	if *shards > 0 {
		if *snapshot != "" {
			log.Fatal("-snapshot is not supported with -shards")
		}
		policy, err := shard.NewPolicy(*routerF)
		if err != nil {
			log.Fatal(err)
		}
		tier, err = shard.NewCluster(shard.Config{
			K: *shards, B: *b, Alpha: *alpha, Omega: *omega,
			Router: policy, AdmissionRate: *admitF, AdmissionBurst: *admitB,
			EnablePprof: *pprofF, SolveBudget: *budget, Incremental: *incr,
		})
		if err != nil {
			log.Fatal(err)
		}
		shape = fmt.Sprintf(", shards=%d, router=%s", *shards, *routerF)
	} else {
		if *incr {
			log.Fatal("-incremental requires -shards (the unsharded platform solves single batches with no cross-round state)")
		}
		var err error
		p, err = buildPlatform(*snapshot, server.Config{B: *b, Alpha: *alpha, Omega: *omega, EnablePprof: *pprofF, SolveBudget: *budget})
		if err != nil {
			log.Fatal(err)
		}
		tier = p
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           tier.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("casc-server listening on %s (B=%d, α=%g, ω=%g%s)\n", *addr, *b, *alpha, *omega, shape)

	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}

	if *snapshot != "" {
		if err := p.Snapshot().SaveFile(*snapshot); err != nil {
			log.Fatalf("saving snapshot: %v", err)
		}
		fmt.Printf("state saved to %s\n", *snapshot)
	}
}

func buildPlatform(path string, cfg server.Config) (*server.Platform, error) {
	if path != "" {
		if snap, err := server.LoadSnapshotFile(path); err == nil {
			p, err := server.Restore(snap, cfg)
			if err != nil {
				return nil, fmt.Errorf("restoring %s: %w", path, err)
			}
			fmt.Printf("restored state from %s (%d batches, score %.2f)\n",
				path, snap.Batches, snap.TotalScore)
			return p, nil
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
	}
	return server.NewPlatform(cfg)
}
