package shard

import (
	"context"
	"errors"
	"net/http"
	"time"

	"casc/internal/server"
)

// Handler returns the cluster's HTTP API: the unsharded platform's front
// end (server.NewFront, so clients need no changes to point at a cluster)
// with Config.AdmissionRate's token bucket gating its POST routes, plus
//
//	GET  /status    → cluster snapshot
//	GET  /shards    → per-shard snapshots
func (c *Cluster) Handler() http.Handler {
	cfg := server.FrontConfig{Metrics: c.metrics, Pprof: c.pprof, SolveBudget: c.solveBudget}
	if c.admission != nil {
		cfg.Admit = c.admit
	}
	f := server.NewFront(c, cfg)
	f.RouteJSON("GET /status", func() any { return c.Status() })
	f.RouteJSON("GET /shards", func() any { return c.Status().PerShard })
	return f.Handler()
}

// admit spends an admission token; a shed request waits until the bucket
// next has one.
func (c *Cluster) admit() (time.Duration, error) {
	err := c.admission.Admit()
	var shed *ErrAdmission
	if errors.As(err, &shed) {
		return shed.RetryAfter, err
	}
	return 0, err
}

// BatchResponse is the cluster's POST /batch reply: the platform's reply
// shape plus the round's sharding observability.
type BatchResponse struct {
	server.BatchResponse
	Components       int `json:"components"`
	BorderComponents int `json:"border_components"`
	GhostWorkers     int `json:"ghost_workers"`
}

// BatchReply runs one round and returns its POST /batch reply.
func (c *Cluster) BatchReply(ctx context.Context, solver string) (any, error) {
	res, err := c.RunBatch(ctx, solver)
	if err != nil {
		return nil, err
	}
	return BatchResponse{
		BatchResponse:    res.BatchResult.Response(),
		Components:       res.Components,
		BorderComponents: res.BorderComponents,
		GhostWorkers:     res.GhostWorkers,
	}, nil
}
