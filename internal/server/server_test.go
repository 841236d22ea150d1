package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"casc/internal/geo"
)

func newTestPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(Config{B: 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(Config{B: 1}); err == nil {
		t.Error("B=1 accepted")
	}
}

func TestPlatformFullLifecycle(t *testing.T) {
	p := newTestPlatform(t)
	// Three workers near the center, one far away.
	var ids []int
	for _, loc := range []geo.Point{
		geo.Pt(0.5, 0.5), geo.Pt(0.52, 0.5), geo.Pt(0.5, 0.52), geo.Pt(0.05, 0.05),
	} {
		id, err := p.RegisterWorker(loc, 0.1, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ids[3] != 3 {
		t.Fatalf("ids not sequential: %v", ids)
	}
	taskID, err := p.PostTask(geo.Pt(0.5, 0.5), 3, 5)
	if err != nil {
		t.Fatal(err)
	}

	res, err := p.RunBatch(context.Background(), "GT")
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchedTasks != 1 {
		t.Fatalf("dispatched %d tasks", res.DispatchedTasks)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("dispatched %d pairs, want 3 (capacity)", len(res.Pairs))
	}
	for _, pr := range res.Pairs {
		if pr.Task != taskID || pr.Worker == 3 {
			t.Fatalf("unexpected pair %+v", pr)
		}
	}
	st := p.Status()
	if st.AvailableWorkers != 1 || st.OpenTasks != 0 || st.DispatchedTasks != 1 {
		t.Fatalf("status %+v", st)
	}

	// Workers are busy until the task is rated.
	if _, err := p.PostTask(geo.Pt(0.5, 0.5), 2, 6); err != nil {
		t.Fatal(err)
	}
	res2, err := p.RunBatch(context.Background(), "TPG")
	if err != nil {
		t.Fatal(err)
	}
	if res2.DispatchedTasks != 0 {
		t.Fatal("dispatched a task with only one available worker")
	}

	// A NaN rating would make every pair of the group NaN in Equation 1;
	// it is rejected and leaves the task unrated.
	if err := p.RateTask(taskID, math.NaN()); err == nil {
		t.Fatal("NaN rating accepted")
	}
	// Rating feeds Equation 1 and releases the workers at the task site.
	if err := p.RateTask(taskID, 1.0); err != nil {
		t.Fatal(err)
	}
	q, err := p.Quality(res.Pairs[0].Worker, res.Pairs[1].Worker)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*0.5 + 0.5*1.0
	if math.Abs(q-want) > 1e-12 {
		t.Fatalf("quality after rating = %v, want %v", q, want)
	}
	if got := p.Status().AvailableWorkers; got != 4 {
		t.Fatalf("%d workers available after rating, want 4", got)
	}
	// Double rating rejected.
	if err := p.RateTask(taskID, 0.5); err == nil {
		t.Error("double rating accepted")
	}
}

func TestRatingImprovesFutureAssignments(t *testing.T) {
	// Two disjoint pairs build up good shared history through the rating
	// pathway; a later batch should keep the proven pairs together rather
	// than mixing them.
	p := newTestPlatform(t)
	register := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := p.RegisterWorker(geo.Pt(0.5, 0.5), 0.2, 0.4); err != nil {
				t.Fatal(err)
			}
		}
	}
	dispatchOne := func() int {
		t.Helper()
		tid, err := p.PostTask(geo.Pt(0.5, 0.5), 2, p.Status().Now+2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunBatch(context.Background(), "TPG")
		if err != nil {
			t.Fatal(err)
		}
		if res.DispatchedTasks != 1 {
			t.Fatalf("seeding dispatched %d tasks", res.DispatchedTasks)
		}
		return tid
	}
	// Workers 0,1 register first and are the only pool for task A; while
	// they are busy, workers 2,3 register and serve task B.
	register(2)
	taskA := dispatchOne()
	register(2)
	taskB := dispatchOne()
	if err := p.RateTask(taskA, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := p.RateTask(taskB, 1.0); err != nil {
		t.Fatal(err)
	}

	q01, _ := p.Quality(0, 1)
	q02, _ := p.Quality(0, 2)
	if q01 <= q02 {
		t.Fatalf("rated pair quality %v not above unrated %v", q01, q02)
	}

	// Now two capacity-2 tasks: the platform should pair (0,1) and (2,3).
	if _, err := p.PostTask(geo.Pt(0.45, 0.5), 2, p.Status().Now+2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PostTask(geo.Pt(0.55, 0.5), 2, p.Status().Now+2); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunBatch(context.Background(), "GT")
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchedTasks != 2 {
		t.Fatalf("dispatched %d tasks, want 2", res.DispatchedTasks)
	}
	groupOf := map[int]int{}
	for _, pr := range res.Pairs {
		groupOf[pr.Worker] = pr.Task
	}
	if groupOf[0] != groupOf[1] || groupOf[2] != groupOf[3] || groupOf[0] == groupOf[2] {
		t.Fatalf("proven pairs were split: %v", groupOf)
	}
}

func TestPostTaskValidation(t *testing.T) {
	p := newTestPlatform(t)
	if _, err := p.PostTask(geo.Pt(0.5, 0.5), 1, 5); err == nil {
		t.Error("capacity below B accepted")
	}
	if _, err := p.PostTask(geo.Pt(0.5, 0.5), 3, 0); err == nil {
		t.Error("past deadline accepted")
	}
	if _, err := p.RegisterWorker(geo.Pt(0, 0), -1, 0.1); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestExpiredTasksDropped(t *testing.T) {
	p := newTestPlatform(t)
	if _, err := p.PostTask(geo.Pt(0.5, 0.5), 2, 0.5); err != nil {
		t.Fatal(err)
	}
	// Advance the internal clock by one batch.
	if _, err := p.RunBatch(context.Background(), "RAND"); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunBatch(context.Background(), "RAND")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredTasks != 1 {
		t.Fatalf("expired %d tasks, want 1", res.ExpiredTasks)
	}
	if p.Status().OpenTasks != 0 {
		t.Error("expired task still open")
	}
}

func TestRunBatchUnknownSolver(t *testing.T) {
	p := newTestPlatform(t)
	if _, err := p.RunBatch(context.Background(), "SIMPLEX"); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestQualityValidation(t *testing.T) {
	p := newTestPlatform(t)
	if _, err := p.RegisterWorker(geo.Pt(0, 0), 0.1, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Quality(0, 0); err == nil {
		t.Error("self pair accepted")
	}
	if _, err := p.Quality(0, 9); err == nil {
		t.Error("unknown worker accepted")
	}
}

func TestConcurrentUse(t *testing.T) {
	p := newTestPlatform(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, _ = p.RegisterWorker(geo.Pt(0.5, 0.5), 0.1, 0.2)
				_, _ = p.PostTask(geo.Pt(0.5, 0.5), 2, p.Status().Now+3)
				_, _ = p.RunBatch(context.Background(), "TPG")
			}
		}(g)
	}
	wg.Wait()
	if p.Status().Batches != 160 {
		t.Errorf("ran %d batches, want 160", p.Status().Batches)
	}
}

// ---- HTTP layer ----

func httpJSON(t *testing.T, srv *httptest.Server, method, path string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, path, err)
	}
	return resp.StatusCode, out
}

func TestHTTPEndToEnd(t *testing.T) {
	p := newTestPlatform(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		code, out := httpJSON(t, srv, "POST", "/workers",
			WorkerRequest{X: 0.5 + float64(i)*0.01, Y: 0.5, Speed: 0.1, Radius: 0.2})
		if code != http.StatusCreated {
			t.Fatalf("worker %d: status %d %v", i, code, out)
		}
	}
	code, out := httpJSON(t, srv, "POST", "/tasks", TaskRequest{X: 0.5, Y: 0.5, Capacity: 3, Deadline: 5})
	if code != http.StatusCreated {
		t.Fatalf("task: status %d %v", code, out)
	}

	code, out = httpJSON(t, srv, "POST", "/batch", BatchRequest{Solver: "GT+ALL"})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d %v", code, out)
	}
	var pairs []PairJSON
	if err := json.Unmarshal(out["pairs"], &pairs); err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("batch dispatched %d pairs, want 3", len(pairs))
	}

	code, _ = httpJSON(t, srv, "POST", "/ratings", RatingRequest{TaskID: pairs[0].Task, Score: 0.9})
	if code != http.StatusOK {
		t.Fatalf("rating: status %d", code)
	}
	code, out = httpJSON(t, srv, "GET",
		fmt.Sprintf("/quality?i=%d&k=%d", pairs[0].Worker, pairs[1].Worker), nil)
	if code != http.StatusOK {
		t.Fatalf("quality: status %d %v", code, out)
	}
	var q float64
	if err := json.Unmarshal(out["quality"], &q); err != nil {
		t.Fatal(err)
	}
	if want := 0.25 + 0.5*0.9; math.Abs(q-want) > 1e-12 {
		t.Fatalf("quality = %v, want %v", q, want)
	}

	code, out = httpJSON(t, srv, "GET", "/status", nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var batches int
	if err := json.Unmarshal(out["batches"], &batches); err != nil {
		t.Fatal(err)
	}
	if batches != 1 {
		t.Fatalf("batches = %d", batches)
	}
}

func TestHTTPErrors(t *testing.T) {
	p := newTestPlatform(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	cases := []struct {
		method, path string
		body         any
		wantStatus   int
	}{
		{"POST", "/workers", map[string]any{"x": 0.1, "bogus": 1}, http.StatusBadRequest},
		{"POST", "/tasks", TaskRequest{Capacity: 0, Deadline: 5}, http.StatusBadRequest},
		{"POST", "/batch", BatchRequest{Solver: "NOPE"}, http.StatusBadRequest},
		{"POST", "/ratings", RatingRequest{TaskID: 99, Score: 0.5}, http.StatusConflict},
		{"GET", "/quality?i=abc&k=1", nil, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, out := httpJSON(t, srv, tc.method, tc.path, tc.body)
		if code != tc.wantStatus {
			t.Errorf("%s %s: status %d (%v), want %d", tc.method, tc.path, code, out, tc.wantStatus)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("%s %s: error body missing", tc.method, tc.path)
		}
	}
}

func TestHTTPBatchDefaultsSolver(t *testing.T) {
	p := newTestPlatform(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	code, _ := httpJSON(t, srv, "POST", "/batch", map[string]any{})
	if code != http.StatusOK {
		t.Fatalf("empty-solver batch: status %d", code)
	}
}

// TestSolveBudgetNormalRequestsUnaffected: a generous budget leaves the
// batch endpoint behaving exactly as before — the ladder's primary rung
// finishes in budget and is returned.
func TestSolveBudgetNormalRequestsUnaffected(t *testing.T) {
	p, err := NewPlatform(Config{B: 2, SolveBudget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range []geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.52, 0.5)} {
		if _, err := p.RegisterWorker(loc, 0.1, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.PostTask(geo.Pt(0.5, 0.5), 2, 5); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	code, body := httpJSON(t, srv, http.MethodPost, "/batch", map[string]string{"solver": "GT"})
	if code != http.StatusOK {
		t.Fatalf("budgeted batch returned %d: %v", code, body)
	}
}

// TestSolveBudgetExhaustedReturns503 drives the degraded path end to end:
// a request whose deadline has already passed when RunBatch reaches the
// platform lock must get 503 with a Retry-After header, and nothing may
// be dispatched.
func TestSolveBudgetExhaustedReturns503(t *testing.T) {
	p, err := NewPlatform(Config{B: 2, SolveBudget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range []geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.52, 0.5)} {
		if _, err := p.RegisterWorker(loc, 0.1, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.PostTask(geo.Pt(0.5, 0.5), 2, 5); err != nil {
		t.Fatal(err)
	}

	// Unit level: a cancelled context at the lock means ErrBudgetExhausted.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunBatch(ctx, "GT"); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("RunBatch with dead ctx: err = %v, want ErrBudgetExhausted", err)
	}

	// HTTP level: a pre-cancelled request context is exactly what an
	// expired deadline looks like to RunBatch.
	req := httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(`{"solver":"GT"}`)).WithContext(ctx)
	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", rr.Code, rr.Body.String())
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After header")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", ra)
	}
	if st := p.Status(); st.DispatchedTasks != 0 {
		t.Errorf("exhausted request dispatched %d tasks", st.DispatchedTasks)
	}
}

func TestRegisterWorkerRejectsNonFinite(t *testing.T) {
	// NaN and ±Inf in each coordinate, the speed and the radius, plus
	// negative values.
	bad := []struct {
		name          string
		loc           geo.Point
		speed, radius float64
	}{
		{"NaN x", geo.Pt(math.NaN(), 0.5), 0.1, 0.2},
		{"NaN y", geo.Pt(0.5, math.NaN()), 0.1, 0.2},
		{"+Inf x", geo.Pt(math.Inf(1), 0.5), 0.1, 0.2},
		{"-Inf y", geo.Pt(0.5, math.Inf(-1)), 0.1, 0.2},
		{"NaN speed", geo.Pt(0.5, 0.5), math.NaN(), 0.2},
		{"+Inf speed", geo.Pt(0.5, 0.5), math.Inf(1), 0.2},
		{"negative speed", geo.Pt(0.5, 0.5), -1, 0.2},
		{"NaN radius", geo.Pt(0.5, 0.5), 0.1, math.NaN()},
		{"+Inf radius", geo.Pt(0.5, 0.5), 0.1, math.Inf(1)},
		{"negative radius", geo.Pt(0.5, 0.5), 0.1, -0.2},
	}
	p := newTestPlatform(t)
	for _, tc := range bad {
		if _, err := p.RegisterWorker(tc.loc, tc.speed, tc.radius); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Rejections consume no ID and leave no worker behind.
	id, err := p.RegisterWorker(geo.Pt(0.5, 0.5), 0, 0)
	if err != nil || id != 0 {
		t.Fatalf("first valid registration: id %d, err %v; want id 0", id, err)
	}
	if st := p.Status(); st.AvailableWorkers != 1 {
		t.Fatalf("%d available workers, want 1", st.AvailableWorkers)
	}
}

func TestPostTaskRejectsNonFinite(t *testing.T) {
	// NaN and ±Inf in each coordinate and the deadline. A NaN deadline
	// passes the "deadline <= now" test, so it needs its own check.
	bad := []struct {
		name     string
		loc      geo.Point
		deadline float64
	}{
		{"NaN x", geo.Pt(math.NaN(), 0.5), 5},
		{"NaN y", geo.Pt(0.5, math.NaN()), 5},
		{"+Inf x", geo.Pt(math.Inf(1), 0.5), 5},
		{"-Inf y", geo.Pt(0.5, math.Inf(-1)), 5},
		{"NaN deadline", geo.Pt(0.5, 0.5), math.NaN()},
		{"+Inf deadline", geo.Pt(0.5, 0.5), math.Inf(1)},
		{"-Inf deadline", geo.Pt(0.5, 0.5), math.Inf(-1)},
	}
	p := newTestPlatform(t)
	for _, tc := range bad {
		if _, err := p.PostTask(tc.loc, 2, tc.deadline); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Rejections consume no ID and leave no task behind.
	id, err := p.PostTask(geo.Pt(0.5, 0.5), 2, 5)
	if err != nil || id != 0 {
		t.Fatalf("first valid post: id %d, err %v; want id 0", id, err)
	}
	if st := p.Status(); st.OpenTasks != 1 {
		t.Fatalf("%d open tasks, want 1", st.OpenTasks)
	}
}

// postRaw sends body verbatim and returns the status code.
func postRaw(t *testing.T, srv *httptest.Server, path, body string) int {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestHTTPPostTaskRejectsBadBodies(t *testing.T) {
	p := newTestPlatform(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	// JSON has no NaN or Inf; out-of-range numbers are its way in.
	for _, body := range []string{
		`{"x":1e999,"y":0.5,"capacity":2,"deadline":5}`,
		`{"x":0.5,"y":0.5,"capacity":2,"deadline":1e999}`,
	} {
		if code := postRaw(t, srv, "/tasks", body); code != http.StatusBadRequest {
			t.Errorf("POST /tasks %s: %d, want 400", body, code)
		}
	}
	// A valid task padded past MaxBodyBytes is refused unread; the same
	// padding under the limit is accepted.
	pad := func(n int) string {
		return `{"x":0.5,"y":0.5,` + strings.Repeat(" ", n) + `"capacity":2,"deadline":5}`
	}
	if code := postRaw(t, srv, "/tasks", pad(MaxBodyBytes)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /tasks: %d, want 413", code)
	}
	if st := p.Status(); st.OpenTasks != 0 {
		t.Fatalf("rejected bodies left %d open tasks", st.OpenTasks)
	}
	if code := postRaw(t, srv, "/tasks", pad(1024)); code != http.StatusCreated {
		t.Errorf("padded POST /tasks under the limit: %d, want 201", code)
	}
	if st := p.Status(); st.OpenTasks != 1 {
		t.Fatalf("%d open tasks, want 1", st.OpenTasks)
	}
}
