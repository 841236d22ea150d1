package assign

import (
	"context"

	"casc/internal/model"
)

// Warm carries output-preserving warm-start state for TPG stage one across
// consecutive solves of slowly-changing instances (the incremental batch
// engine's rounds). The cache holds, per task, the iteration-0 best-B-subset
// — the one bestBSubset computes with every worker available — keyed by the
// task's external ID and guarded by an exact fingerprint: the external IDs
// of the task's candidate workers in TaskCand order, plus its capacity.
//
// Reuse is sound only because a fingerprint match pins every input of the
// iteration-0 computation: the candidate sequence (hence the affinity
// truncation and the greedy trace), the capacity (hence the score
// denominator), and — by contract — the quality values. Callers must only
// share a Warm across solves whose quality model is a fixed function of
// worker external IDs (the batch tier's Subset over a static model is; a
// position-keyed or mutating history is not). A hit therefore reproduces
// the cold computation bit for bit; anything else is a miss and the entry
// is recomputed and replaced. Warm is not safe for concurrent use.
type Warm struct {
	tasks map[int]*warmTask
}

// warmTask is one task's cached iteration-0 subset.
type warmTask struct {
	candIDs  []int // external IDs of TaskCand workers, in list order
	capacity int
	set      []int // chosen indices into candIDs, in greedy commit order; nil = no B-set
	score    float64
}

// NewWarm returns an empty warm-start cache.
func NewWarm() *Warm { return &Warm{tasks: make(map[int]*warmTask)} }

// Len returns the number of cached task entries.
func (w *Warm) Len() int { return len(w.tasks) }

// Forget drops the entry of task external ID id, if any. The owner calls
// it once no live task carries the ID, so the cache stays bounded by the
// live task population.
func (w *Warm) Forget(id int) { delete(w.tasks, id) }

// lookup returns the cached entry for task position t if its fingerprint
// matches the instance exactly, else nil.
func (w *Warm) lookup(in *model.Instance, t int) *warmTask {
	wt := w.tasks[in.Tasks[t].ID]
	if wt == nil || wt.capacity != in.Tasks[t].Capacity {
		return nil
	}
	cand := in.TaskCand[t]
	if len(wt.candIDs) != len(cand) {
		return nil
	}
	for i, p := range cand {
		if wt.candIDs[i] != in.Workers[p].ID {
			return nil
		}
	}
	return wt
}

// apply materializes the cached subset as worker positions of in, in the
// original greedy commit order (group member order feeds the float
// summation order of GroupQuality, so it must be preserved exactly). The
// subset is appended to dst — the task's arena B-set slot — so a cache hit
// allocates nothing.
func (wt *warmTask) apply(in *model.Instance, t int, dst []int) ([]int, float64) {
	if wt.set == nil {
		return nil, 0
	}
	for _, idx := range wt.set {
		dst = append(dst, in.TaskCand[t][idx])
	}
	return dst, wt.score
}

// store records task position t's freshly computed iteration-0 subset,
// replacing any stale entry. The chosen worker positions are re-expressed
// as indices into the fingerprint sequence so a later hit can remap them
// onto that round's positions.
func (w *Warm) store(in *model.Instance, t int, set []int, score float64) {
	cand := in.TaskCand[t]
	wt := w.tasks[in.Tasks[t].ID]
	if wt == nil {
		wt = &warmTask{}
		w.tasks[in.Tasks[t].ID] = wt
	}
	wt.candIDs = wt.candIDs[:0]
	for _, p := range cand {
		wt.candIDs = append(wt.candIDs, in.Workers[p].ID)
	}
	wt.capacity = in.Tasks[t].Capacity
	wt.score = score
	if set == nil {
		wt.set = nil
		return
	}
	wt.set = wt.set[:0]
	for _, p := range set {
		idx := -1
		for i, c := range cand {
			if c == p {
				idx = i
				break
			}
		}
		if idx < 0 {
			// The chosen worker is not in TaskCand (cannot happen for
			// bestBSubset output); refuse to cache rather than corrupt.
			wt.set = nil
			wt.candIDs = wt.candIDs[:0]
			return
		}
		wt.set = append(wt.set, idx)
	}
}

// WarmStarter is implemented by solvers that can exploit a Warm cache while
// guaranteeing the exact output of a cold Solve on the same instance. The
// contract is strictly output-preserving: SolveWarm(ctx, in, warm) must
// return an assignment bitwise identical (same pairs, same group member
// order, same scores) to Solve(ctx, in); the cache only shortcuts
// recomputation. SolveWarm with a nil warm behaves exactly like Solve.
type WarmStarter interface {
	Solver
	SolveWarm(ctx context.Context, in *model.Instance, warm *Warm) (*model.Assignment, error)
}

// SolveMaybeWarm dispatches to s.SolveWarm when s supports warm starts and
// warm is non-nil, else to s.Solve. Helper for engines holding a decorated
// solver stack.
func SolveMaybeWarm(ctx context.Context, s Solver, in *model.Instance, warm *Warm) (*model.Assignment, error) {
	if ws, ok := s.(WarmStarter); ok && warm != nil {
		return ws.SolveWarm(ctx, in, warm)
	}
	return s.Solve(ctx, in)
}
