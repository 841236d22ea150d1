package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"casc/internal/geo"
	"casc/internal/metrics"
	"casc/internal/server"
)

// Handler returns the cluster's HTTP API. It speaks the same wire protocol
// as the unsharded platform (request bodies are the server package's DTOs,
// so clients need no changes to point at a cluster) plus one extra route:
//
//	POST /workers   {"x":0.2,"y":0.3,"speed":0.05,"radius":0.1} → {"id":0}
//	POST /tasks     {"x":0.5,"y":0.5,"capacity":5,"deadline":3} → {"id":0}
//	POST /batch     {"solver":"GT"}                             → batch result
//	POST /ratings   {"task_id":0,"score":0.9}                   → {}
//	GET  /quality?i=0&k=1                                       → {"quality":0.5}
//	GET  /status                                                → cluster snapshot
//	GET  /shards                                                → per-shard snapshots
//	GET  /metrics                                               → Prometheus text
//
// When admission control is configured, every mutating POST passes through
// the token bucket first and shed requests get 503 with a Retry-After
// header — the same contract budget exhaustion uses, so clients implement
// one backoff path for both.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	c.httpRoute(mux, "POST /workers", c.admitted(c.handleRegisterWorker))
	c.httpRoute(mux, "POST /tasks", c.admitted(c.handlePostTask))
	c.httpRoute(mux, "POST /batch", c.admitted(c.handleBatch))
	c.httpRoute(mux, "POST /ratings", c.admitted(c.handleRate))
	c.httpRoute(mux, "GET /quality", c.handleQuality)
	c.httpRoute(mux, "GET /status", c.handleStatus)
	c.httpRoute(mux, "GET /shards", c.handleShards)
	c.httpRoute(mux, "GET /metrics", c.metrics.Handler().ServeHTTP)
	if c.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// httpRoute registers pattern with the platform's request-counting and
// latency-recording convention (casc_http_* series, route label = pattern).
func (c *Cluster) httpRoute(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	routeLbl := metrics.L("route", pattern)
	lat := c.metrics.Histogram(server.MetricHTTPRequestSeconds, "HTTP request latency in seconds.",
		metrics.LatencyBuckets(), routeLbl)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		lat.Observe(now().Sub(start).Seconds())
		c.metrics.Counter(server.MetricHTTPRequests, "HTTP requests by route and status code.",
			routeLbl, metrics.L("code", strconv.Itoa(sw.code))).Inc()
	})
}

// admitted wraps a mutating handler with token-bucket admission control.
func (c *Cluster) admitted(h http.HandlerFunc) http.HandlerFunc {
	if c.admission == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if err := c.admission.Admit(); err != nil {
			var shed *ErrAdmission
			if errors.As(err, &shed) {
				w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
			}
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		h(w, r)
	}
}

// retryAfterSeconds renders a duration as whole seconds, rounded up so the
// advertised wait is never shorter than the real one.
func retryAfterSeconds(d time.Duration) string {
	s := int64(d / time.Second)
	if d%time.Second != 0 || s == 0 {
		s++
	}
	return strconv.FormatInt(s, 10)
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (c *Cluster) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req server.WorkerRequest
	if !server.Decode(w, r, &req) {
		return
	}
	id, err := c.RegisterWorker(geo.Pt(req.X, req.Y), req.Speed, req.Radius)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": id})
}

func (c *Cluster) handlePostTask(w http.ResponseWriter, r *http.Request) {
	var req server.TaskRequest
	if !server.Decode(w, r, &req) {
		return
	}
	id, err := c.PostTask(geo.Pt(req.X, req.Y), req.Capacity, req.Deadline)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": id})
}

// BatchResponse is the cluster's POST /batch reply: the platform's reply
// shape plus the round's sharding observability.
type BatchResponse struct {
	server.BatchResponse
	Components       int `json:"components"`
	BorderComponents int `json:"border_components"`
	GhostWorkers     int `json:"ghost_workers"`
}

func (c *Cluster) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if !server.Decode(w, r, &req) {
		return
	}
	if req.Solver == "" {
		req.Solver = "GT+ALL"
	}
	ctx := r.Context()
	if c.solveBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.solveBudget)
		defer cancel()
	}
	res, err := c.RunBatch(ctx, req.Solver)
	if errors.Is(err, ErrBudgetExhausted) {
		w.Header().Set("Retry-After", retryAfterSeconds(c.solveBudget))
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := BatchResponse{
		BatchResponse: server.BatchResponse{
			Score:           res.Score,
			Upper:           res.Upper,
			DispatchedTasks: res.DispatchedTasks,
			ExpiredTasks:    res.ExpiredTasks,
			Pairs:           []server.PairJSON{},
		},
		Components:       res.Components,
		BorderComponents: res.BorderComponents,
		GhostWorkers:     res.GhostWorkers,
	}
	for _, pr := range res.Pairs {
		resp.Pairs = append(resp.Pairs, server.PairJSON{Worker: pr.Worker, Task: pr.Task})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Cluster) handleRate(w http.ResponseWriter, r *http.Request) {
	var req server.RatingRequest
	if !server.Decode(w, r, &req) {
		return
	}
	if err := c.RateTask(req.TaskID, req.Score); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{})
}

func (c *Cluster) handleQuality(w http.ResponseWriter, r *http.Request) {
	i, err1 := strconv.Atoi(r.URL.Query().Get("i"))
	k, err2 := strconv.Atoi(r.URL.Query().Get("k"))
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("quality needs integer i and k params"))
		return
	}
	q, err := c.Quality(i, k)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"quality": q})
}

func (c *Cluster) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

func (c *Cluster) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status().PerShard)
}
