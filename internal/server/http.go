package server

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
)

// HTTP-layer metric names. Every route registered on a Front is wrapped
// so each request records a counter by route and status code and a
// latency histogram by route.
const (
	MetricHTTPRequests       = "casc_http_requests_total"
	MetricHTTPRequestSeconds = "casc_http_request_seconds"
)

// Tier is the platform loop a Front serves: workers register, requesters
// post tasks, a batch assigns them, and ratings feed Equation 1. Both
// serving tiers — *Platform and the sharded *shard.Cluster — satisfy it.
type Tier interface {
	RegisterWorker(loc geo.Point, speed, radius float64) (int, error)
	PostTask(loc geo.Point, capacity int, deadline float64) (int, error)
	RateTask(taskID int, score float64) error
	Quality(i, k int) (float64, error)
	// BatchReply runs one batch with the named solver and returns the
	// POST /batch reply body.
	BatchReply(ctx context.Context, solver string) (any, error)
}

// FrontConfig wires a tier's own settings into its Front.
type FrontConfig struct {
	// Metrics receives the casc_http_* series and is served by GET /metrics.
	Metrics *metrics.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// SolveBudget, when positive, is each POST /batch's context deadline;
	// a batch failing with ErrBudgetExhausted gets 503 with a Retry-After
	// of one budget.
	SolveBudget time.Duration
	// Admit, when non-nil, gates the four mutating POST routes: a non-nil
	// error sheds the request with 503 and a Retry-After of the returned
	// wait.
	Admit func() (wait time.Duration, err error)
}

// Front is the HTTP front end both serving tiers share. NewFront
// registers the routes every tier serves:
//
//	POST /workers   {"x":0.2,"y":0.3,"speed":0.05,"radius":0.1}   → {"id":0}
//	POST /tasks     {"x":0.5,"y":0.5,"capacity":5,"deadline":3}   → {"id":0}
//	POST /batch     {"solver":"GT+ALL"}                           → batch result
//	POST /ratings   {"task_id":0,"score":0.9}                     → {}
//	GET  /quality?i=0&k=1                                         → {"quality":0.5}
//	GET  /metrics                                                 → Prometheus text
//
// plus net/http/pprof under /debug/pprof/ when FrontConfig.Pprof is set.
// Each tier adds its own routes with Route and RouteJSON. Errors are
// returned as {"error": "..."} with a 4xx status, or 503 with a
// Retry-After header when a request is shed or its solve budget runs out.
type Front struct {
	mux  *http.ServeMux
	tier Tier
	cfg  FrontConfig
}

// NewFront returns a front end serving t's shared routes.
func NewFront(t Tier, cfg FrontConfig) *Front {
	f := &Front{mux: http.NewServeMux(), tier: t, cfg: cfg}
	f.Route("POST /workers", f.admitted(f.handleRegisterWorker))
	f.Route("POST /tasks", f.admitted(f.handlePostTask))
	f.Route("POST /batch", f.admitted(f.handleBatch))
	f.Route("POST /ratings", f.admitted(f.handleRate))
	f.Route("GET /quality", f.handleQuality)
	f.Route("GET /metrics", cfg.Metrics.Handler().ServeHTTP)
	if cfg.Pprof {
		// pprof.Index routes /debug/pprof/{heap,goroutine,...} itself.
		f.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		f.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		f.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		f.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		f.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return f
}

// Handler returns the front end's mux.
func (f *Front) Handler() http.Handler { return f.mux }

// Route registers pattern with request counting and latency recording.
// The route label is the registration pattern, not the raw URL, so
// cardinality stays bounded no matter what clients request.
func (f *Front) Route(pattern string, h http.HandlerFunc) {
	reg := f.cfg.Metrics
	routeLbl := metrics.L("route", pattern)
	lat := reg.Histogram(MetricHTTPRequestSeconds, "HTTP request latency in seconds.",
		metrics.LatencyBuckets(), routeLbl)
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		lat.Observe(time.Since(start).Seconds())
		reg.Counter(MetricHTTPRequests, "HTTP requests by route and status code.",
			routeLbl, metrics.L("code", strconv.Itoa(sw.code))).Inc()
	})
}

// RouteJSON registers a read-only route replying 200 with v's JSON.
func (f *Front) RouteJSON(pattern string, v func() any) {
	f.Route(pattern, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, v())
	})
}

// admitted wraps a mutating handler with the FrontConfig.Admit gate.
func (f *Front) admitted(h http.HandlerFunc) http.HandlerFunc {
	if f.cfg.Admit == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if wait, err := f.cfg.Admit(); err != nil {
			w.Header().Set("Retry-After", retryAfter(wait))
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		h(w, r)
	}
}

// retryAfter renders a wait as a Retry-After value: whole seconds, rounded
// up so the advertised wait is never shorter than the real one.
func retryAfter(d time.Duration) string {
	s := int64(d / time.Second)
	if d%time.Second != 0 || s == 0 {
		s++
	}
	return strconv.FormatInt(s, 10)
}

// statusWriter captures the response status code for the request counter.
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

// MaxBodyBytes bounds every JSON request body the HTTP tiers read.
const MaxBodyBytes = 1 << 20

// decode reads r's JSON body into v, rejecting unknown fields and bodies
// over MaxBodyBytes. On failure it writes the error response — 413 for an
// oversized body, 400 otherwise — and returns false. Every route with a
// request body decodes it through here.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// WorkerRequest is the POST /workers body.
type WorkerRequest struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Speed  float64 `json:"speed"`
	Radius float64 `json:"radius"`
}

func (f *Front) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req WorkerRequest
	if !decode(w, r, &req) {
		return
	}
	id, err := f.tier.RegisterWorker(geo.Pt(req.X, req.Y), req.Speed, req.Radius)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": id})
}

// TaskRequest is the POST /tasks body.
type TaskRequest struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Capacity int     `json:"capacity"`
	Deadline float64 `json:"deadline"`
}

func (f *Front) handlePostTask(w http.ResponseWriter, r *http.Request) {
	var req TaskRequest
	if !decode(w, r, &req) {
		return
	}
	id, err := f.tier.PostTask(geo.Pt(req.X, req.Y), req.Capacity, req.Deadline)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": id})
}

// BatchRequest is the POST /batch body.
type BatchRequest struct {
	Solver string `json:"solver"`
}

// BatchResponse is the POST /batch reply.
type BatchResponse struct {
	Pairs           []PairJSON `json:"pairs"`
	Score           float64    `json:"score"`
	Upper           float64    `json:"upper"`
	DispatchedTasks int        `json:"dispatched_tasks"`
	ExpiredTasks    int        `json:"expired_tasks"`
}

// PairJSON is one dispatched worker-and-task pair.
type PairJSON struct {
	Worker int `json:"worker"`
	Task   int `json:"task"`
}

// Response renders the batch as its POST /batch reply.
func (res *BatchResult) Response() BatchResponse {
	resp := BatchResponse{
		Score:           res.Score,
		Upper:           res.Upper,
		DispatchedTasks: res.DispatchedTasks,
		ExpiredTasks:    res.ExpiredTasks,
		Pairs:           make([]PairJSON, 0, len(res.Pairs)),
	}
	for _, pr := range res.Pairs {
		resp.Pairs = append(resp.Pairs, PairJSON{Worker: pr.Worker, Task: pr.Task})
	}
	return resp
}

// BatchReply runs one batch and returns its POST /batch reply.
func (p *Platform) BatchReply(ctx context.Context, solver string) (any, error) {
	res, err := p.RunBatch(ctx, solver)
	if err != nil {
		return nil, err
	}
	return res.Response(), nil
}

func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Solver == "" {
		req.Solver = "GT+ALL"
	}
	ctx := r.Context()
	if f.cfg.SolveBudget > 0 {
		// Per-request solve deadline: bounds time queued for the tier's
		// batch lock plus the solve itself.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.SolveBudget)
		defer cancel()
	}
	resp, err := f.tier.BatchReply(ctx, req.Solver)
	if errors.Is(err, ErrBudgetExhausted) {
		// Degraded, not broken: tell clients when a retry is worth it —
		// one full budget from now.
		w.Header().Set("Retry-After", retryAfter(f.cfg.SolveBudget))
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// RatingRequest is the POST /ratings body.
type RatingRequest struct {
	TaskID int     `json:"task_id"`
	Score  float64 `json:"score"`
}

func (f *Front) handleRate(w http.ResponseWriter, r *http.Request) {
	var req RatingRequest
	if !decode(w, r, &req) {
		return
	}
	if err := f.tier.RateTask(req.TaskID, req.Score); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{})
}

func (f *Front) handleQuality(w http.ResponseWriter, r *http.Request) {
	i, err1 := strconv.Atoi(r.URL.Query().Get("i"))
	k, err2 := strconv.Atoi(r.URL.Query().Get("k"))
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("quality needs integer i and k params"))
		return
	}
	q, err := f.tier.Quality(i, k)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"quality": q})
}

// Handler returns the platform's HTTP API: the shared Front routes plus
//
//	GET  /status                                                  → snapshot
//	GET  /recommend?worker=0&limit=10                             → ranked tasks
//
// and the admin routes of admin.go. With Config.EnablePprof,
// net/http/pprof is mounted under /debug/pprof/.
func (p *Platform) Handler() http.Handler {
	f := NewFront(p, FrontConfig{Metrics: p.metrics, Pprof: p.pprof, SolveBudget: p.solveBudget})
	f.RouteJSON("GET /status", func() any { return p.Status() })
	f.Route("GET /recommend", p.handleRecommend)
	p.registerAdmin(f)
	return f.Handler()
}
