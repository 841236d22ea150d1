package assign

import (
	"math"
	"math/bits"

	"casc/internal/model"
)

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
	in    *model.Instance
	walk  peerWalk // reset by the first walk after each Reset
	reset bool
	best  []ranked // the best values offered since the last clear, best first
	mask  []uint64 // Dense's co-candidate bitsets
}

// ranked is a value offered to QHat's selection and the worker it
// belongs to: a co-candidate p of the worker evaluated and q_w(p), or a
// task's candidate and its q̂.
type ranked struct {
	q    float64
	peer int
}

// Reset points q at in, which must have its candidates and Quality set.
func (q *QHat) Reset(in *model.Instance) {
	q.in, q.reset = in, true
}

// Of returns worker w's q̂_{i,B}: the mean of its B−1 highest qualities
// over its co-candidates, or 0 when it has fewer than B−1 (it cannot be
// in any feasible group). Each worker may be asked once per Reset.
//
// Both routes select with offer, which keeps the B−1 best values and
// turns any other away with one comparison against the (B−1)-th. A
// worker whose candidate tasks all have blocks is read in one pass over
// its block rows, with no walk and no model call. Any other worker is
// walked with a stamp per co-candidate (peerWalk), which lists each
// once, with its value when it is first met in a block row; when it has
// at least B−1, the model is asked about the rest. A walk that asked the
// model inline (counting co-candidates first, or deferring the calls
// until it had met B−1) made from-scratch UPPER 8–20 % slower at
// churn-incremental's shape, where most workers have B−2 co-candidates
// over ten tasks.
func (q *QHat) Of(w int) float64 {
	k := q.in.B - 1
	if k < 1 {
		return 0
	}
	q.clear(k)
	if q.in.Blocks != nil && q.scanBlocks(w, k) {
		return q.mean(k)
	}
	q.clear(k)
	if q.reset {
		q.walk.reset(q.in)
		q.reset = false
	}
	peers, vals := q.walk.of(w)
	if len(peers)+len(vals) < k {
		return 0
	}
	thr := math.NaN()
	for _, v := range vals {
		if !(v <= thr) {
			thr = q.offer(v, -1, k, false) // no dedup: the peer is not read
		}
	}
	for _, p := range peers {
		if v := q.in.Quality.Quality(w, p); !(v <= thr) {
			thr = q.offer(v, p, k, false)
		}
	}
	return q.mean(k)
}

// clear empties best and gives it room for k values: at least 8, which
// holds the paper's B−1 and task capacities without regrowing.
func (q *QHat) clear(k int) {
	if cap(q.best) < k {
		q.best = make([]ranked, 0, max(k, 8))
	}
	q.best = q.best[:0]
}

// mean is the q̂ that best holds: the mean of its k values, or 0 when it
// holds fewer.
func (q *QHat) mean(k int) float64 {
	if len(q.best) < k {
		return 0
	}
	var sum float64
	for _, r := range q.best {
		sum += r.q
	}
	return sum / float64(k)
}

// Dense appends to dst the q̂ of every worker of in, in position order,
// reading q_w(k) from m[w·n+k], n = len(in.Workers): a dense copy of
// in.Quality with its bits, as a caller that holds one for a small
// instance has. It marks each worker's co-candidates in a bitset of n bits
// and keeps the B−1 best of its row over them, so it costs
// O(n² + Σ_t |TaskCand_t|·n/64) where Of's walks cost
// O(Σ_t |TaskCand_t|²), and gives Of's bits. It reads no quality from
// in.Quality.
func (q *QHat) Dense(in *model.Instance, m []float64, dst []float64) []float64 {
	n, k := len(in.Workers), in.B-1
	if k < 1 {
		for range n {
			dst = append(dst, 0)
		}
		return dst
	}
	words := (n + 63) / 64
	if cap(q.mask) < (n+1)*words {
		q.mask = make([]uint64, (n+1)*words)
	}
	q.mask = q.mask[:(n+1)*words]
	clear(q.mask)
	task := q.mask[n*words:] // the members of one task
	for _, c := range in.TaskCand {
		for _, w := range c {
			task[w>>6] |= 1 << (w & 63)
		}
		for _, w := range c {
			peers := q.mask[w*words : (w+1)*words]
			for i, x := range task {
				peers[i] |= x
			}
		}
		for _, w := range c {
			task[w>>6] = 0
		}
	}
	for w := 0; w < n; w++ {
		peers := q.mask[w*words : (w+1)*words]
		peers[w>>6] &^= 1 << (w & 63)
		row := m[w*n : (w+1)*n]
		q.clear(k)
		thr := math.NaN()
		for i, x := range peers {
			for ; x != 0; x &= x - 1 {
				p := i<<6 | bits.TrailingZeros64(x)
				if v := row[p]; !(v <= thr) {
					thr = q.offer(v, p, k, false)
				}
			}
		}
		dst = append(dst, q.mean(k))
	}
	return dst
}

// scanBlocks offers every entry of w's block rows to best and reports
// true, or reports false when some candidate task of w has no block. A
// co-candidate of several tasks is met once per task with the same bits
// (FillBlocks fills every block from one model), so best drops the
// repeats; any co-candidate it does not hold ranks behind its last.
func (q *QHat) scanBlocks(w, k int) bool {
	in := q.in
	thr := math.NaN()
	for i, t := range in.WorkerCand[w] {
		row := in.BlockRow(w, i)
		if row == nil {
			return false
		}
		cand := in.TaskCand[t][:len(row)]
		for b, v := range row {
			if v <= thr {
				continue
			}
			if p := cand[b]; p != w {
				thr = q.offer(v, p, k, true)
			}
		}
	}
	return true
}

// offer inserts (v, p) into best, which keeps the k values ranked first in
// topK's order (NaN lowest; equal values in arrival order), unless v does
// not rank ahead of the k-th or, with dedup, p is already held. It returns
// the threshold a caller compares the next value with: a value ≤ it
// cannot enter. That is the k-th value, or NaN, which no value is ≤,
// while best holds fewer than k or its k-th is NaN.
func (q *QHat) offer(v float64, p, k int, dedup bool) float64 {
	n := len(q.best)
	if n == k && !ahead(v, q.best[n-1].q) {
		return q.best[n-1].q
	}
	if dedup {
		for _, r := range q.best {
			if r.peer == p {
				return q.threshold(k)
			}
		}
	}
	if n < k {
		q.best = append(q.best, ranked{})
	} else {
		n-- // v displaces the k-th
	}
	i := n
	for i > 0 && ahead(v, q.best[i-1].q) {
		q.best[i] = q.best[i-1]
		i--
	}
	q.best[i] = ranked{v, p}
	return q.threshold(k)
}

func (q *QHat) threshold(k int) float64 {
	if len(q.best) < k {
		return math.NaN()
	}
	return q.best[k-1].q
}

// ahead reports whether a ranks strictly ahead of b in descending
// sort.Float64Slice order, NaN last.
func ahead(a, b float64) bool {
	return b < a || (b != b && a == a)
}

// Bound combines every worker's q̂, indexed by position, into Equation 9.
func (q *QHat) Bound(qhat []float64) float64 {
	in := q.in
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
		k := min(in.Tasks[t].Capacity, len(cand))
		if k <= 0 {
			continue
		}
		q.clear(k)
		thr := math.NaN()
		for _, w := range cand {
			if v := qhat[w]; !(v <= thr) {
				thr = q.offer(v, w, k, false)
			}
		}
		for _, r := range q.best {
			taskSide += r.q
		}
	}

	var workerSide float64
	for _, v := range qhat {
		workerSide += v
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
