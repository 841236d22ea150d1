package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"casc/internal/coop"
	"casc/internal/geo"
)

func TestUpdateWorker(t *testing.T) {
	p := newTestPlatform(t)
	id, _ := p.RegisterWorker(geo.Pt(0.1, 0.1), 0.05, 0.2)
	if err := p.UpdateWorker(id, geo.Pt(0.8, 0.8), 0.1, -1); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	w := p.workers[id]
	p.mu.Unlock()
	if w.Loc != geo.Pt(0.8, 0.8) || w.Speed != 0.1 || w.Radius != 0.2 {
		t.Errorf("worker after update: %+v", w)
	}
	if err := p.UpdateWorker(99, geo.Pt(0, 0), 0.1, 0.1); err == nil {
		t.Error("unknown worker updated")
	}
}

func TestUnregisterAndCancel(t *testing.T) {
	p := newTestPlatform(t)
	id, _ := p.RegisterWorker(geo.Pt(0.1, 0.1), 0.05, 0.2)
	if err := p.UnregisterWorker(id); err != nil {
		t.Fatal(err)
	}
	if err := p.UnregisterWorker(id); err == nil {
		t.Error("double unregister succeeded")
	}
	tid, _ := p.PostTask(geo.Pt(0.5, 0.5), 2, 5)
	if err := p.CancelTask(tid); err != nil {
		t.Fatal(err)
	}
	if err := p.CancelTask(tid); err == nil {
		t.Error("double cancel succeeded")
	}
	if p.Status().OpenTasks != 0 || p.Status().AvailableWorkers != 0 {
		t.Error("state not cleaned")
	}
}

func TestBusyWorkerCannotLeave(t *testing.T) {
	p := newTestPlatform(t)
	for i := 0; i < 2; i++ {
		if _, err := p.RegisterWorker(geo.Pt(0.5, 0.5), 0.2, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	tid, _ := p.PostTask(geo.Pt(0.5, 0.5), 2, 5)
	if _, err := p.RunBatch(context.Background(), "TPG"); err != nil {
		t.Fatal(err)
	}
	if err := p.UnregisterWorker(0); err == nil {
		t.Error("busy worker unregistered")
	}
	if err := p.RateTask(tid, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := p.UnregisterWorker(0); err != nil {
		t.Errorf("freed worker cannot leave: %v", err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := newTestPlatform(t)
	for i := 0; i < 4; i++ {
		if _, err := p.RegisterWorker(geo.Pt(0.5+float64(i)*0.01, 0.5), 0.1, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	t1, _ := p.PostTask(geo.Pt(0.5, 0.5), 2, 5)
	if _, err := p.PostTask(geo.Pt(0.52, 0.5), 2, 6); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunBatch(context.Background(), "GT")
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchedTasks != 2 {
		t.Fatalf("dispatched %d", res.DispatchedTasks)
	}
	if err := p.RateTask(t1, 0.9); err != nil {
		t.Fatal(err)
	}
	// t1 is rated (workers back), the other dispatched task is pending.

	snap := p.Snapshot()
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if err := snap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(loaded, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// State parity.
	a, b := p.Status(), restored.Status()
	if a.AvailableWorkers != b.AvailableWorkers || a.OpenTasks != b.OpenTasks ||
		a.Batches != b.Batches || a.DispatchedTasks != b.DispatchedTasks ||
		math.Abs(a.TotalScore-b.TotalScore) > 1e-12 {
		t.Fatalf("status mismatch:\n%+v\n%+v", a, b)
	}
	// History parity: rated pair's quality survives.
	pairW := []int{-1, -1}
	for _, pr := range res.Pairs {
		if pr.Task == t1 {
			if pairW[0] < 0 {
				pairW[0] = pr.Worker
			} else {
				pairW[1] = pr.Worker
			}
		}
	}
	q1, _ := p.Quality(pairW[0], pairW[1])
	q2, _ := restored.Quality(pairW[0], pairW[1])
	if math.Abs(q1-q2) > 1e-12 {
		t.Fatalf("history lost: %v vs %v", q1, q2)
	}
	// Pending dispatched group can still be rated after restore, releasing
	// its workers.
	var pendingTask int = -1
	for _, g := range snap.Dispatched {
		pendingTask = g.TaskID
	}
	if pendingTask < 0 {
		t.Fatal("no pending group snapshotted")
	}
	before := restored.Status().AvailableWorkers
	if err := restored.RateTask(pendingTask, 0.7); err != nil {
		t.Fatal(err)
	}
	if restored.Status().AvailableWorkers != before+2 {
		t.Error("restored pending group did not release workers on rating")
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	cases := map[string]*Snapshot{
		"bad B":         {B: 1},
		"worker range":  {B: 2, NextWorkerID: 1, Workers: []SnapshotWorker{{ID: 5}}},
		"task range":    {B: 2, NextTaskID: 1, Tasks: []SnapshotTask{{ID: 5, Capacity: 2}}},
		"bad history":   {B: 2, History: []coop.PairRecord{{I: 0, K: 0, Count: 1}}},
		"history range": {B: 2, NextWorkerID: 2, History: []coop.PairRecord{{I: 0, K: 1, Count: 1, Sum: 1}, {I: 1, K: 5, Count: 1, Sum: 1}}},
		"history NaN":   {B: 2, NextWorkerID: 2, History: []coop.PairRecord{{I: 0, K: 1, Count: 1, Sum: math.NaN()}}},
	}
	for name, s := range cases {
		if _, err := Restore(s, Config{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadSnapshotGarbage(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := LoadSnapshotFile("/nonexistent/snap.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAdminHTTPEndpoints(t *testing.T) {
	p := newTestPlatform(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	code, out := httpJSON(t, srv, "POST", "/workers", WorkerRequest{X: 0.2, Y: 0.2, Speed: 0.1, Radius: 0.2})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, out)
	}
	if code, _ := httpJSON(t, srv, "PUT", "/workers/0", WorkerRequest{X: 0.7, Y: 0.7, Speed: -1, Radius: -1}); code != http.StatusOK {
		t.Fatalf("update: %d", code)
	}
	if code, _ := httpJSON(t, srv, "PUT", "/workers/abc", WorkerRequest{}); code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", code)
	}
	if code, _ := httpJSON(t, srv, "DELETE", "/workers/0", nil); code != http.StatusOK {
		t.Fatalf("unregister: %d", code)
	}
	if code, _ := httpJSON(t, srv, "DELETE", "/workers/0", nil); code != http.StatusNotFound {
		t.Fatalf("double unregister: %d", code)
	}
	code, _ = httpJSON(t, srv, "POST", "/tasks", TaskRequest{X: 0.5, Y: 0.5, Capacity: 2, Deadline: 5})
	if code != http.StatusCreated {
		t.Fatalf("post task: %d", code)
	}
	if code, _ := httpJSON(t, srv, "DELETE", "/tasks/0", nil); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	code, out = httpJSON(t, srv, "GET", "/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	if _, ok := out["history"]; !ok {
		t.Error("snapshot missing history field")
	}
}

func TestListEndpoints(t *testing.T) {
	p := newTestPlatform(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.RegisterWorker(geo.Pt(float64(i)*0.1, 0.5), 0.1, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.PostTask(geo.Pt(0.5, 0.5), 2, 5); err != nil {
		t.Fatal(err)
	}
	code, out := httpJSON(t, srv, "GET", "/workers", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /workers: %d", code)
	}
	var workers []SnapshotWorker
	if err := json.Unmarshal(out["workers"], &workers); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 3 || workers[0].ID != 0 || workers[2].ID != 2 {
		t.Fatalf("workers: %+v", workers)
	}
	code, out = httpJSON(t, srv, "GET", "/tasks", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /tasks: %d", code)
	}
	var tasks []SnapshotTask
	if err := json.Unmarshal(out["tasks"], &tasks); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].Capacity != 2 {
		t.Fatalf("tasks: %+v", tasks)
	}
}
