package assign

import "casc/internal/model"

// Upper computes the UPPER estimate of the paper's experiments: the bound
// on the total cooperation quality revenue from Equation 9,
//
//	Q̂(ϕ) = min( Σ_j Q̂_tj , Σ_i q̂_{i,B} )
//
// where q̂_{i,B} (Lemma V.2) is worker i's largest possible average quality
// in any group of ≥ B workers — the mean of their B−1 highest pairwise
// qualities — and Q̂_tj (Equation 8) sums the a_j highest q̂ values among
// the task's candidate workers.
//
// Two refinements keep the bound valid while tightening it: q̂_{i,B} is
// computed over workers that share at least one candidate task with i
// (any feasible group containing i consists of such workers), and tasks
// with fewer than B candidates contribute zero (they can never be served).
func Upper(in *model.Instance) float64 {
	if in.B < 2 {
		return 0
	}
	var q QHat
	q.Reset(in)
	qhat := make([]float64, len(in.Workers))
	for w := range qhat {
		qhat[w] = q.Of(w)
	}
	return q.Bound(qhat)
}

// QHat holds Upper's two passes apart for a caller that keeps some
// workers' q̂ from an earlier instance of the same workers and qualities:
// Of is the per-worker pass (Lemma V.2) and Bound the combine step
// (Equations 8 and 9). Evaluating only the workers whose q̂ is unknown and
// combining them with the kept ones gives Upper's bits. The scratch is
// reused across Reset calls.
type QHat struct {
	in   *model.Instance
	walk peerWalk
	top  topK
}

// Reset points q at in, which must have its candidates and Quality set.
func (q *QHat) Reset(in *model.Instance) {
	q.in = in
	q.walk.reset(in)
	if q.top.buf == nil {
		q.top = *newTopK()
	}
}

// Of returns worker w's q̂_{i,B}. Each worker may be asked once per Reset.
func (q *QHat) Of(w int) float64 {
	if q.in.B < 2 {
		return 0
	}
	peers, vals := q.walk.of(w)
	return qhatOf(q.in, w, peers, vals, &q.top)
}

// Bound combines every worker's q̂, indexed by position, into Equation 9.
func (q *QHat) Bound(qhat []float64) float64 { return bound(q.in, qhat, &q.top) }

// qhatOf is q̂_{i,B} of worker w (B ≥ 2) given its co-candidates, as
// peerWalk.of returns them: the mean of its B−1 highest qualities over
// them, or 0 when it has fewer than B−1 (it cannot be in any feasible
// group).
func qhatOf(in *model.Instance, w int, peers []int, vals []float64, top *topK) float64 {
	B := in.B
	if len(peers)+len(vals) < B-1 {
		return 0
	}
	top.reset(B-1, true)
	for _, q := range vals {
		top.push(q)
	}
	for _, k := range peers {
		top.push(in.Quality.Quality(w, k))
	}
	var sum float64
	for _, q := range top.vals() {
		sum += q
	}
	return sum / float64(B-1)
}

// bound is Equation 9 over every worker's q̂, indexed by position.
func bound(in *model.Instance, qhat []float64, top *topK) float64 {
	B := in.B
	if B < 2 {
		return 0
	}
	// Task side (Equation 8): Q̂_tj = Σ of the top-a_j q̂ values among the
	// task's candidates. The paper's Q(W_j) sums each member's average
	// quality twice (ordered pairs), i.e. Q(W_j) = Σ_{i∈W_j} q_i(W_j) with
	// q_i(W_j) ≤ q̂_i for symmetric models counted per direction; summing
	// q̂ over members bounds Σ_i q_i(W_j) because Lemma V.2 bounds each
	// term. Ordered-pair sums are already folded into q̂ via Quality being
	// symmetric in all paper models.
	var taskSide float64
	for t := range in.Tasks {
		cand := in.TaskCand[t]
		if len(cand) < B {
			continue
		}
		top.reset(min(in.Tasks[t].Capacity, len(cand)), true)
		for _, w := range cand {
			top.push(qhat[w])
		}
		for _, q := range top.vals() {
			taskSide += q
		}
	}

	var workerSide float64
	for _, q := range qhat {
		workerSide += q
	}
	if workerSide < taskSide {
		return workerSide
	}
	return taskSide
}

// UpperTight is a strictly tighter (but costlier) variant of Upper: the
// per-task bound Q̂_tj evaluates each candidate worker's q̂ *within that
// task's own candidate set* — any feasible group at t_j consists solely of
// t_j's candidates, so restricting the top-(B−1) average to them remains a
// valid upper bound on q_i(W_j) (the Lemma V.2 argument applied per task).
// The worker-side term is unchanged. UpperTight ≤ Upper always; the gap
// measures how much of UPPER's looseness comes from workers "borrowing"
// good partners they could never actually share a task with.
//
//casclint:ignore deadcode ablation of Upper reported in EXPERIMENTS.md (TestUpperTightIsValidAndTighter)
func UpperTight(in *model.Instance) float64 {
	B := in.B
	if B < 2 {
		return 0
	}
	var taskSide float64
	pair, local := newTopK(), newTopK()
	for t := range in.Tasks {
		cand := in.TaskCand[t]
		if len(cand) < B {
			continue
		}
		local.reset(min(in.Tasks[t].Capacity, len(cand)), true)
		for _, w := range cand {
			pair.reset(B-1, true)
			for _, k := range cand {
				if k != w {
					pair.push(in.Quality.Quality(w, k))
				}
			}
			var sum float64
			for _, q := range pair.vals() {
				sum += q
			}
			local.push(sum / float64(B-1))
		}
		for _, q := range local.vals() {
			taskSide += q
		}
	}
	global := Upper(in)
	if taskSide < global {
		return taskSide
	}
	return global
}
