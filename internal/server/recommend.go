package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"casc/internal/model"
)

// Recommendation is one ranked task suggestion for a worker: the expected
// cooperation utility ΔQ (Equation 5) of joining the task's *current*
// provisional group, computed against the platform's live quality
// estimates. This is the server-side support the worker-selected-tasks
// (WST) publishing mode of §VII needs: workers browse, the platform ranks.
type Recommendation struct {
	TaskID int     `json:"task_id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	// Utility is ΔQ of joining the task given the workers currently
	// nearest to it (a preview; the actual batch may group differently).
	Utility float64 `json:"utility"`
	// Distance from the worker.
	Distance float64 `json:"distance"`
}

// Recommend ranks the open tasks a worker can validly serve. The utility
// preview treats, for each candidate task, the other available candidate
// workers with the highest pairwise quality to this worker as the
// provisional group (size B−1) — the best group the worker could hope to
// join there.
func (p *Platform) Recommend(workerID int, limit int) ([]Recommendation, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	// Read the registry's maps in place, without sorted copies.
	r := p.registry
	r.mu.RLock()
	defer r.mu.RUnlock()
	w, ok := r.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("server: worker %d not available (unknown or busy)", workerID)
	}
	if limit <= 0 {
		limit = 10
	}
	now := p.clock()
	var out []Recommendation
	for taskID, t := range r.tasks {
		if !model.Valid(w, t, now) {
			continue
		}
		// Provisional group: the B−1 best co-candidates for this task.
		var qs []float64
		for otherID, other := range r.workers {
			if otherID == workerID || !model.Valid(other, t, now) {
				continue
			}
			qs = append(qs, p.history.Quality(workerID, otherID))
		}
		if len(qs) < p.b-1 {
			continue // the worker could never complete this task
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(qs)))
		var sum float64
		for i := 0; i < p.b-1; i++ {
			sum += qs[i]
		}
		// ΔQ of completing a fresh B-group: the full group quality, of
		// which this worker's directed share is 2·Σq/(B−1) under symmetry.
		utility := 2 * sum / float64(p.b-1)
		out = append(out, Recommendation{
			TaskID:   taskID,
			X:        t.Loc.X,
			Y:        t.Loc.Y,
			Utility:  utility,
			Distance: w.Loc.Dist(t.Loc),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Utility != out[b].Utility {
			return out[a].Utility > out[b].Utility
		}
		return out[a].Distance < out[b].Distance
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// handleRecommend serves GET /recommend?worker=ID&limit=N.
func (p *Platform) handleRecommend(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("worker"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("recommend needs an integer worker param"))
		return
	}
	limit := 10
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if limit, err = strconv.Atoi(ls); err != nil || limit < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
	}
	recs, err := p.Recommend(id, limit)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if recs == nil {
		recs = []Recommendation{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"recommendations": recs})
}
