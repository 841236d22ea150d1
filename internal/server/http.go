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

// HTTP-layer metric names. Every route registered on the platform mux is
// wrapped so each request records a counter by route and status code and
// a latency histogram by route.
const (
	MetricHTTPRequests       = "casc_http_requests_total"
	MetricHTTPRequestSeconds = "casc_http_request_seconds"
)

// Handler returns the platform's HTTP API:
//
//	POST /workers   {"x":0.2,"y":0.3,"speed":0.05,"radius":0.1}   → {"id":0}
//	POST /tasks     {"x":0.5,"y":0.5,"capacity":5,"deadline":3}   → {"id":0}
//	POST /batch     {"solver":"GT+ALL"}                           → batch result
//	POST /ratings   {"task_id":0,"score":0.9}                     → {}
//	GET  /quality?i=0&k=1                                         → {"quality":0.5}
//	GET  /status                                                  → snapshot
//	GET  /metrics                                                 → Prometheus text
//
// With Config.EnablePprof, net/http/pprof is mounted under /debug/pprof/.
// Errors are returned as {"error": "..."} with a 4xx status.
func (p *Platform) Handler() http.Handler {
	mux := http.NewServeMux()
	p.route(mux, "POST /workers", p.handleRegisterWorker)
	p.route(mux, "POST /tasks", p.handlePostTask)
	p.route(mux, "POST /batch", p.handleBatch)
	p.route(mux, "POST /ratings", p.handleRate)
	p.route(mux, "GET /quality", p.handleQuality)
	p.route(mux, "GET /recommend", p.handleRecommend)
	p.route(mux, "GET /status", p.handleStatus)
	p.route(mux, "GET /metrics", p.metrics.Handler().ServeHTTP)
	p.registerAdmin(mux)
	if p.pprof {
		// pprof.Index routes /debug/pprof/{heap,goroutine,...} itself.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// route registers pattern with request counting and latency recording.
// The route label is the registration pattern, not the raw URL, so
// cardinality stays bounded no matter what clients request.
func (p *Platform) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	routeLbl := metrics.L("route", pattern)
	lat := p.metrics.Histogram(MetricHTTPRequestSeconds, "HTTP request latency in seconds.",
		metrics.LatencyBuckets(), routeLbl)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		lat.Observe(time.Since(start).Seconds())
		p.metrics.Counter(MetricHTTPRequests, "HTTP requests by route and status code.",
			routeLbl, metrics.L("code", strconv.Itoa(sw.code))).Inc()
	})
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

// Decode reads r's JSON body into v, rejecting unknown fields and bodies
// over MaxBodyBytes. On failure it writes the error response — 413 for an
// oversized body, 400 otherwise — and returns false. Both HTTP tiers
// decode every request body through it.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
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

func (p *Platform) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req WorkerRequest
	if !Decode(w, r, &req) {
		return
	}
	id, err := p.RegisterWorker(geo.Pt(req.X, req.Y), req.Speed, req.Radius)
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

func (p *Platform) handlePostTask(w http.ResponseWriter, r *http.Request) {
	var req TaskRequest
	if !Decode(w, r, &req) {
		return
	}
	id, err := p.PostTask(geo.Pt(req.X, req.Y), req.Capacity, req.Deadline)
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

func (p *Platform) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !Decode(w, r, &req) {
		return
	}
	if req.Solver == "" {
		req.Solver = "GT+ALL"
	}
	ctx := r.Context()
	if p.solveBudget > 0 {
		// Per-request solve deadline: bounds time queued for the platform
		// lock plus the solve itself.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.solveBudget)
		defer cancel()
	}
	res, err := p.RunBatch(ctx, req.Solver)
	if errors.Is(err, ErrBudgetExhausted) {
		// Degraded, not broken: tell clients when a retry is worth it —
		// one full budget from now, rounded up to whole seconds.
		retry := int64(p.solveBudget / time.Second)
		if p.solveBudget%time.Second != 0 || retry == 0 {
			retry++
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := BatchResponse{
		Score:           res.Score,
		Upper:           res.Upper,
		DispatchedTasks: res.DispatchedTasks,
		ExpiredTasks:    res.ExpiredTasks,
		Pairs:           []PairJSON{},
	}
	for _, pr := range res.Pairs {
		resp.Pairs = append(resp.Pairs, PairJSON{Worker: pr.Worker, Task: pr.Task})
	}
	writeJSON(w, http.StatusOK, resp)
}

// RatingRequest is the POST /ratings body.
type RatingRequest struct {
	TaskID int     `json:"task_id"`
	Score  float64 `json:"score"`
}

func (p *Platform) handleRate(w http.ResponseWriter, r *http.Request) {
	var req RatingRequest
	if !Decode(w, r, &req) {
		return
	}
	if err := p.RateTask(req.TaskID, req.Score); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{})
}

func (p *Platform) handleQuality(w http.ResponseWriter, r *http.Request) {
	i, err1 := strconv.Atoi(r.URL.Query().Get("i"))
	k, err2 := strconv.Atoi(r.URL.Query().Get("k"))
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("quality needs integer i and k params"))
		return
	}
	q, err := p.Quality(i, k)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"quality": q})
}

func (p *Platform) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, p.Status())
}
