package coop

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// History accumulates co-operation records — task ratings shared by worker
// pairs — and estimates qualities with Equation 1 of the paper:
//
//	q_i(w_k) = α·ω + (1−α)·mean(s_j over tasks both contributed to)
//
// Pairs with no shared history fall back to the prior: q = α·ω + (1−α)·ω,
// i.e. ω (the paper's "priori assumption ... the average cooperation quality
// between any two workers, such as ω"). History is safe for concurrent use.
type History struct {
	mu    sync.RWMutex
	n     int
	alpha float64
	omega float64
	recs  map[uint64]pairRec
}

// pairRec is one unordered pair's accumulated ratings.
type pairRec struct {
	sum   float64
	count int
}

// maxWorker bounds the worker indices a history records: keyOf packs both
// indices of a pair into one uint64, so each must fit in 32 bits.
const maxWorker = 1<<32 - 1

// keyOf packs the unordered pair {i, k} as lo<<32 | hi, the same key
// Cached uses. Indices must lie in [0, maxWorker].
func keyOf(i, k int) uint64 {
	if i > k {
		i, k = k, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(k))
}

// checkRecord panics unless (i, k) is a recordable pair and score a
// finite rating in [0,1]; Record of both estimators calls it.
func checkRecord(i, k int, score float64) {
	if i == k {
		panic("coop: cannot record self cooperation")
	}
	if uint64(i) > maxWorker || uint64(k) > maxWorker {
		panic(fmt.Sprintf("coop: worker pair (%d,%d) outside [0,%d]", i, k, maxWorker))
	}
	if math.IsNaN(score) || score < 0 || score > 1 {
		panic(fmt.Sprintf("coop: rating %v outside [0,1]", score))
	}
}

// NewHistory returns an empty history over n workers with mixing parameter
// alpha ∈ [0,1] and base quality omega ∈ [0,1]. The paper's experiments use
// alpha = omega = 0.5.
func NewHistory(n int, alpha, omega float64) *History {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("coop: alpha %v outside [0,1]", alpha))
	}
	if omega < 0 || omega > 1 {
		panic(fmt.Sprintf("coop: omega %v outside [0,1]", omega))
	}
	return &History{
		n:     n,
		alpha: alpha,
		omega: omega,
		recs:  make(map[uint64]pairRec),
	}
}

// Record registers that workers i and k both contributed to a task rated
// score ∈ [0,1]. It panics on a self pair, a negative or over-32-bit
// worker index, and a rating that is NaN or outside [0,1].
func (h *History) Record(i, k int, score float64) {
	checkRecord(i, k, score)
	key := keyOf(i, k)
	h.mu.Lock()
	r := h.recs[key]
	r.sum += score
	r.count++
	h.recs[key] = r
	h.mu.Unlock()
}

// RecordGroup registers a rated task completed by a whole worker group:
// every unordered pair in the group receives the rating.
func (h *History) RecordGroup(workers []int, score float64) {
	for a := 0; a < len(workers); a++ {
		for b := a + 1; b < len(workers); b++ {
			h.Record(workers[a], workers[b], score)
		}
	}
}

// SharedTasks returns |T_ik|, the number of tasks workers i and k both
// contributed to.
func (h *History) SharedTasks(i, k int) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.recs[keyOf(i, k)].count
}

// AddFrom merges every pair record of src into h: sums and counts add,
// and the worker count grows to cover src. Merging the per-shard
// histories of a sharded platform (in shard order) therefore yields
// exactly the Equation 1 estimates one global history would hold —
// ratings are recorded in whichever shard owned the task, and each
// pair's total is the order-fixed sum of its per-shard partial sums.
func (h *History) AddFrom(src *History) {
	src.mu.RLock()
	defer src.mu.RUnlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	//casclint:ignore maporder each destination key is accumulated exactly once per source map, so float order across distinct keys cannot affect any key's value
	for key, s := range src.recs {
		r := h.recs[key]
		r.sum += s.sum
		r.count += s.count
		h.recs[key] = r
	}
	if src.n > h.n {
		h.n = src.n
	}
}

// PairStats returns the accumulated rating sum and count for the pair
// (i, k). Sums and counts from independent histories add, so callers
// holding several histories (one per spatial shard) can aggregate pair
// statistics into exactly the Equation 1 estimate one global history would
// produce.
func (h *History) PairStats(i, k int) (sum float64, count int) {
	key := keyOf(i, k)
	h.mu.RLock()
	r := h.recs[key]
	h.mu.RUnlock()
	return r.sum, r.count
}

// Quality implements Model with Equation 1.
func (h *History) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	key := keyOf(i, k)
	h.mu.RLock()
	r := h.recs[key]
	h.mu.RUnlock()
	hist := h.omega // prior when no shared history
	if r.count > 0 {
		hist = r.sum / float64(r.count)
	}
	return h.alpha*h.omega + (1-h.alpha)*hist
}

// NumWorkers implements Model.
func (h *History) NumWorkers() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.n
}

// Grow raises the worker count to at least n. Existing records are kept;
// new workers start from the prior. Platforms registering workers
// dynamically call this as IDs are handed out.
func (h *History) Grow(n int) {
	h.mu.Lock()
	if n > h.n {
		h.n = n
	}
	h.mu.Unlock()
}

// PairRecord is one worker pair's accumulated rating history, used for
// snapshotting a History to disk and restoring it.
type PairRecord struct {
	I     int     `json:"i"`
	K     int     `json:"k"`
	Sum   float64 `json:"sum"`
	Count int     `json:"count"`
}

// Export snapshots all accumulated records, sorted by (I, K).
func (h *History) Export() []PairRecord {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]PairRecord, 0, len(h.recs))
	for key, r := range h.recs {
		out = append(out, PairRecord{I: int(key >> 32), K: int(uint32(key)), Sum: r.sum, Count: r.count})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].K < out[b].K
	})
	return out
}

// Import merges exported records into the history (sums and counts add).
// Records referencing workers beyond the current count grow it. It rejects
// the whole batch, changing nothing, if any record names a self pair or a
// worker outside [0, 1<<32), or has a negative count or a sum that is NaN
// or outside [0, count].
func (h *History) Import(recs []PairRecord) error {
	for _, r := range recs {
		if r.I == r.K || uint64(r.I) > maxWorker || uint64(r.K) > maxWorker {
			return fmt.Errorf("coop: bad pair record (%d,%d)", r.I, r.K)
		}
		if r.Count < 0 || math.IsNaN(r.Sum) || r.Sum < 0 || r.Sum > float64(r.Count) {
			return fmt.Errorf("coop: pair (%d,%d) has sum %v over %d ratings", r.I, r.K, r.Sum, r.Count)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range recs {
		key := keyOf(r.I, r.K)
		rec := h.recs[key]
		rec.sum += r.Sum
		rec.count += r.Count
		h.recs[key] = rec
		if r.K+1 > h.n {
			h.n = r.K + 1
		}
		if r.I+1 > h.n {
			h.n = r.I + 1
		}
	}
	return nil
}

// Jaccard is the Meetup-experiment quality model of §VI-A:
//
//	q_i(w_k) = 0.5·0.5 + 0.5 · c_ik / C_ik
//
// where c_ik is the number of groups both workers joined and C_ik the size
// of the union of their group sets. Group memberships are stored as sorted
// int slices per worker, so Quality runs a linear merge with no allocation.
type Jaccard struct {
	// Groups[i] is the sorted slice of group IDs worker i belongs to.
	Groups [][]int
	// Alpha and Omega parameterize the blend; the paper fixes both to 0.5
	// (with s_j = 1 in Equation 1).
	Alpha, Omega float64
}

// NewJaccard builds a Jaccard model with the paper's α = ω = 0.5 from
// per-worker group membership lists. The lists must be sorted ascending and
// duplicate-free; NewJaccard verifies this and panics otherwise.
func NewJaccard(groups [][]int) *Jaccard {
	for w, g := range groups {
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				panic(fmt.Sprintf("coop: worker %d group list not sorted/unique", w))
			}
		}
	}
	return &Jaccard{Groups: groups, Alpha: 0.5, Omega: 0.5}
}

// Quality implements Model.
func (j *Jaccard) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	gi, gk := j.Groups[i], j.Groups[k]
	inter, union := 0, 0
	a, b := 0, 0
	for a < len(gi) && b < len(gk) {
		switch {
		case gi[a] == gk[b]:
			inter++
			union++
			a++
			b++
		case gi[a] < gk[b]:
			union++
			a++
		default:
			union++
			b++
		}
	}
	union += (len(gi) - a) + (len(gk) - b)
	frac := 0.0
	if union > 0 {
		frac = float64(inter) / float64(union)
	}
	return j.Alpha*j.Omega + (1-j.Alpha)*frac
}

// NumWorkers implements Model.
func (j *Jaccard) NumWorkers() int { return len(j.Groups) }
