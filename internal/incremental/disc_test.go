package incremental_test

import (
	"fmt"
	"slices"
	"testing"

	"casc/internal/geo"
	"casc/internal/incremental"
	"casc/internal/model"
)

// TestDiscBoundaryAgreement puts tasks at integer-ratio offsets (3-4-5 and
// 5-0) of u from a worker with radius 5u, so each task sits on the disc's
// edge up to rounding. Every index of BuildCandidates and the engine, with
// the worker arriving before the tasks (AddTask's query at maxRadius, once
// with a wider worker raising maxRadius) and after them (AddWorker's
// query), must list exactly the tasks Valid admits.
func TestDiscBoundaryAgreement(t *testing.T) {
	cases := []struct {
		c geo.Point
		u float64
	}{
		{geo.Pt(0.1, 0.1), 0.1},
		{geo.Pt(0.25, 0.5), 1.0 / 255},
		{geo.Pt(0.3, 0.7), 0.05},
		{geo.Pt(0.5, 0.5), 0.01},
		{geo.Pt(1.0/3, 0.2), 0.03},
		{geo.Pt(0.7, 0.45), 0.07},
		{geo.Pt(0.6, 0.6), 0.02},
	}
	offsets := [][2]float64{{3, 4}, {4, 3}, {5, 0}, {0, 5}}
	boundary := 0 // admitted tasks whose squared offset exceeds radius²
	for _, tc := range cases {
		w := model.Worker{ID: 0, Loc: tc.c, Speed: 1, Radius: 5 * tc.u}
		var tasks []model.Task
		for _, o := range offsets {
			for _, s := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				if (o[0] == 0 && s[0] < 0) || (o[1] == 0 && s[1] < 0) {
					continue
				}
				loc := geo.Pt(tc.c.X+s[0]*o[0]*tc.u, tc.c.Y+s[1]*o[1]*tc.u)
				tasks = append(tasks, model.Task{ID: len(tasks), Loc: loc, Capacity: 2, Deadline: 10})
			}
		}
		var want []int
		for j, tk := range tasks {
			if model.Valid(w, tk, 0) {
				want = append(want, j)
				dx, dy := tk.Loc.X-w.Loc.X, tk.Loc.Y-w.Loc.Y
				if dx*dx+dy*dy > w.Radius*w.Radius {
					boundary++
				}
			}
		}
		name := fmt.Sprintf("c=%v,u=%g", tc.c, tc.u)
		for _, kind := range []model.IndexKind{model.IndexRTree, model.IndexGrid, model.IndexLinear} {
			in := &model.Instance{Workers: []model.Worker{w}, Tasks: tasks, B: 2}
			in.BuildCandidates(kind)
			if !slices.Equal(in.WorkerCand[0], want) {
				t.Errorf("%s %v: candidates %v, want %v", name, kind, in.WorkerCand[0], want)
			}
		}
		wide := model.Worker{ID: 1, Loc: geo.Pt(5, 5), Speed: 1, Radius: 6 * tc.u}
		paths := []struct {
			name string
			add  func(e *incremental.Engine)
		}{
			{"worker first (AddTask)", func(e *incremental.Engine) {
				e.AddWorker(w)
				for _, tk := range tasks {
					e.AddTask(tk)
				}
			}},
			{"worker first, wider worker (AddTask at maxRadius)", func(e *incremental.Engine) {
				e.AddWorker(w)
				e.AddWorker(wide)
				for _, tk := range tasks {
					e.AddTask(tk)
				}
			}},
			{"tasks first (AddWorker)", func(e *incremental.Engine) {
				for _, tk := range tasks {
					e.AddTask(tk)
				}
				e.AddWorker(w)
			}},
		}
		for _, p := range paths {
			e := incremental.New(incremental.Config{B: 2})
			e.BeginRound(0)
			p.add(e)
			// w arrives before any other worker, so it sits at position 0.
			if got := e.Plan().In.WorkerCand[0]; !slices.Equal(got, want) {
				t.Errorf("%s engine, %s: candidates %v, want %v", name, p.name, got, want)
			}
		}
	}
	if boundary == 0 {
		t.Fatal("no case admits a task that the squared distance rejects; the table no longer tests the boundary")
	}
}
