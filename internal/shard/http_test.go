package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"casc/internal/server"
)

func postJSON(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding body: %v", path, err)
	}
	return resp, out
}

// TestHTTPEndToEnd drives the full wire protocol against a 4-shard
// cluster: register, post, batch, rate, quality, status, shards, metrics.
func TestHTTPEndToEnd(t *testing.T) {
	c := newTestCluster(t, 4)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	for i := 0; i < 4; i++ {
		resp, out := postJSON(t, srv, "/workers",
			fmt.Sprintf(`{"x":%g,"y":0.31,"speed":0.05,"radius":0.2}`, 0.3+float64(i)/50))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /workers: %d %v", resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, srv, "/tasks", `{"x":0.33,"y":0.3,"capacity":3,"deadline":5}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tasks: %d %v", resp.StatusCode, out)
	}
	taskID := int(out["id"].(float64))

	resp, out = postJSON(t, srv, "/batch", `{"solver":"GT"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %d %v", resp.StatusCode, out)
	}
	if disp := out["dispatched_tasks"].(float64); disp != 1 {
		t.Fatalf("dispatched %v tasks, want 1 (body %v)", disp, out)
	}
	if _, ok := out["components"]; !ok {
		t.Error("batch response missing sharding observability fields")
	}

	resp, out = postJSON(t, srv, "/ratings", fmt.Sprintf(`{"task_id":%d,"score":1}`, taskID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ratings: %d %v", resp.StatusCode, out)
	}
	resp, _ = postJSON(t, srv, "/ratings", fmt.Sprintf(`{"task_id":%d,"score":1}`, taskID))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double rating: %d, want 409", resp.StatusCode)
	}

	qresp, err := http.Get(srv.URL + "/quality?i=0&k=1")
	if err != nil {
		t.Fatal(err)
	}
	var q map[string]float64
	_ = json.NewDecoder(qresp.Body).Decode(&q)
	qresp.Body.Close()
	if q["quality"] != 0.75 {
		t.Errorf("quality = %v, want 0.75 after a 1.0 rating", q["quality"])
	}

	sresp, err := http.Get(srv.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	var perShard []ShardStatus
	_ = json.NewDecoder(sresp.Body).Decode(&perShard)
	sresp.Body.Close()
	if len(perShard) != 4 {
		t.Errorf("GET /shards returned %d entries, want 4", len(perShard))
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		MetricShardWorkers, MetricShardHandoffs, MetricClusterBatches, MetricClusterScore,
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("GET /metrics missing %s", series)
		}
	}
	if !strings.Contains(string(body), `shard="0"`) {
		t.Error("GET /metrics missing shard labels")
	}
}

// TestHTTPAdmissionShedding pins the 503 + Retry-After contract: with a
// one-token bucket the second mutating request in the same instant is shed
// with a whole-second Retry-After hint, and read endpoints stay open.
func TestHTTPAdmissionShedding(t *testing.T) {
	advance := withFakeClock(t)
	c := newTestCluster(t, 2, func(cfg *Config) {
		cfg.AdmissionRate = 0.5
		cfg.AdmissionBurst = 1
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, _ := postJSON(t, srv, "/workers", `{"x":0.5,"y":0.5,"speed":0.05,"radius":0.1}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first request shed: %d", resp.StatusCode)
	}
	resp, out := postJSON(t, srv, "/workers", `{"x":0.5,"y":0.5,"speed":0.05,"radius":0.1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request: %d %v, want 503", resp.StatusCode, out)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	if gresp, err := http.Get(srv.URL + "/status"); err != nil || gresp.StatusCode != http.StatusOK {
		t.Errorf("GET /status while shedding: %v %v", gresp, err)
	} else {
		gresp.Body.Close()
	}
	// After the advertised wait the bucket has recovered a token.
	advance(time.Duration(retry) * time.Second)
	resp, _ = postJSON(t, srv, "/workers", `{"x":0.5,"y":0.5,"speed":0.05,"radius":0.1}`)
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("request after Retry-After still shed: %d", resp.StatusCode)
	}
	if c.admission.shed.Value() == 0 {
		t.Error("casc_admission_shed_total not incremented")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	c := newTestCluster(t, 2)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for _, tc := range []struct{ path, body string }{
		{"/workers", `{"x":0.5,"y":0.5,"speed":-1,"radius":0.1}`},
		{"/workers", `{"nope":1}`},
		{"/tasks", `{"x":0.5,"y":0.5,"capacity":1,"deadline":5}`},
		{"/batch", `{"solver":"NOPE"}`},
	} {
		resp, _ := postJSON(t, srv, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	qresp, err := http.Get(srv.URL + "/quality?i=zero&k=1")
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /quality with bad params: %d, want 400", qresp.StatusCode)
	}
}

func TestHTTPRejectsOversizedBody(t *testing.T) {
	c := newTestCluster(t, 2)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	// A valid task padded past the body limit is refused unread; the same
	// padding under the limit is accepted.
	pad := func(n int) string {
		return `{"x":0.5,"y":0.5,` + strings.Repeat(" ", n) + `"capacity":3,"deadline":5}`
	}
	resp, _ := postJSON(t, srv, "/tasks", pad(server.MaxBodyBytes))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /tasks: %d, want 413", resp.StatusCode)
	}
	for _, body := range []string{
		`{"x":1e999,"y":0.5,"capacity":3,"deadline":5}`,
		`{"x":0.5,"y":0.5,"capacity":3,"deadline":1e999}`,
	} {
		if resp, _ := postJSON(t, srv, "/tasks", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /tasks %s: %d, want 400", body, resp.StatusCode)
		}
	}
	if st := c.Status(); st.OpenTasks != 0 {
		t.Fatalf("rejected bodies left %d open tasks", st.OpenTasks)
	}
	if resp, _ := postJSON(t, srv, "/tasks", pad(1024)); resp.StatusCode != http.StatusCreated {
		t.Errorf("padded POST /tasks under the limit: %d, want 201", resp.StatusCode)
	}
	if st := c.Status(); st.OpenTasks != 1 {
		t.Fatalf("%d open tasks, want 1", st.OpenTasks)
	}
}
