package coop

import (
	"fmt"
	"math"
	"slices"
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
//
// Each worker's rated partners form one row sorted by partner ID, and each
// unordered pair lives once, in the row of its smaller ID. The rows are
// keyed by worker in a map, so a record naming a worker near 1<<32 costs
// no more than one naming worker 1. QualityBlock reads a whole task's
// pairs by merging rows with the task's ascending candidate list.
type History struct {
	mu    sync.RWMutex
	n     int
	alpha float64
	omega float64
	rows  map[uint32]row
}

// row is one worker's rated partners above it, ascending: rec[j] holds
// the accumulated ratings of the worker and partner k[j]. The IDs sit
// apart from the records, so a search or a merge reads 4 bytes a step.
type row struct {
	k   []uint32
	rec []pairRec
}

// pairRec is one unordered pair's accumulated ratings.
type pairRec struct {
	sum   float64
	count int
}

// maxWorker bounds the worker indices a history records: rows and keyOf
// hold each index in 32 bits.
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
		rows:  make(map[uint32]row),
	}
}

// Record registers that workers i and k both contributed to a task rated
// score ∈ [0,1]. It panics on a self pair, a negative or over-32-bit
// worker index, and a rating that is NaN or outside [0,1]. A pair's first
// record is inserted into its row, moving the partners above it: O(log r)
// to find the pair and O(r) to insert it, for a row of r partners.
func (h *History) Record(i, k int, score float64) {
	checkRecord(i, k, score)
	h.mu.Lock()
	h.add(i, k, score, 1)
	h.mu.Unlock()
}

// add accumulates sum and count onto the pair {i, k}, inserting its record
// into the smaller ID's row when it has none. The caller holds the lock.
func (h *History) add(i, k int, sum float64, count int) {
	if i > k {
		i, k = k, i
	}
	r := h.rows[uint32(i)]
	if _, grew := r.add(0, uint32(k), sum, count); grew {
		h.rows[uint32(i)] = r
	}
}

// add accumulates sum and count onto partner k, which is at position from
// or above it, inserting k there when the row lacks it. It returns k's
// position and whether the row grew; a row that grew must be stored back.
func (r *row) add(from int, k uint32, sum float64, count int) (j int, grew bool) {
	d, ok := search(r.k[from:], k)
	j = from + d
	if !ok {
		r.k = slices.Insert(r.k, j, k)
		r.rec = slices.Insert(r.rec, j, pairRec{})
	}
	r.rec[j].sum += sum
	r.rec[j].count += count
	return j, !ok
}

// search returns the position of k in the ascending ks, or where it would
// be inserted, and whether it is there.
func search(ks []uint32, k uint32) (int, bool) {
	lo, hi := 0, len(ks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ks[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ks) && ks[lo] == k
}

// find returns the record of the pair {i, k}, the zero record when it has
// none. The caller holds the lock.
func (h *History) find(i, k int) pairRec {
	if i > k {
		i, k = k, i
	}
	r := h.rows[uint32(i)]
	if j, ok := search(r.k, uint32(k)); ok {
		return r.rec[j]
	}
	return pairRec{}
}

// estimate evaluates Equation 1 over one pair's record; the zero record
// gives the prior.
func (h *History) estimate(r pairRec) float64 {
	hist := h.omega // prior when no shared history
	if r.count > 0 {
		hist = r.sum / float64(r.count)
	}
	return h.alpha*h.omega + (1-h.alpha)*hist
}

// RecordGroup registers a rated task completed by a whole worker group:
// every unordered pair in the group receives the rating, under one lock.
// It panics as Record does, before recording any pair. Each pair is
// rated once, so the order it visits them in leaves every sum's bits as
// Record's would: it walks the group in ascending ID order, so each row
// is looked up once and searched past its previous partner only.
func (h *History) RecordGroup(workers []int, score float64) {
	var buf [8]int
	ws := append(buf[:0], workers...)
	slices.Sort(ws)
	for a := range ws {
		for b := a + 1; b < len(ws); b++ {
			checkRecord(ws[a], ws[b], score)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for a, i := range ws[:max(len(ws)-1, 0)] {
		r, j, grew := h.rows[uint32(i)], 0, false
		for _, k := range ws[a+1:] {
			var g bool
			j, g = r.add(j, uint32(k), score, 1)
			j++
			grew = grew || g
		}
		if grew {
			h.rows[uint32(i)] = r
		}
	}
}

// SharedTasks returns |T_ik|, the number of tasks workers i and k both
// contributed to.
func (h *History) SharedTasks(i, k int) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.find(i, k).count
}

// Quality implements Model with Equation 1.
func (h *History) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	h.mu.RLock()
	r := h.find(i, k)
	h.mu.RUnlock()
	return h.estimate(r)
}

// QualityBlock implements model.BlockModel: it sets dst[a·n+b] to
// Quality(ids[a], ids[b]) for the n ascending, distinct IDs, under one read
// lock. The block starts at the prior with a zero diagonal; then each ID's
// row is merged with the IDs above it, and only the rated pairs are
// written, on both sides of the diagonal.
func (h *History) QualityBlock(ids []int, dst []float64) {
	h.mu.RLock()
	h.block(ids, dst)
	h.mu.RUnlock()
}

// block is QualityBlock under the caller's lock. It returns the merge
// steps it took, each advancing the row, the list or both: the fill's
// work beyond the n² stores.
func (h *History) block(ids []int, dst []float64) (steps int) {
	n := len(ids)
	dst = dst[:n*n]
	prior := h.estimate(pairRec{})
	for x := range dst {
		dst[x] = prior
	}
	for a, x := range ids {
		dst[a*n+a] = 0
		r, rest := h.rows[uint32(x)], ids[a+1:]
		ks, recs := r.k, r.rec
		j, b := 0, 0
		for j < len(ks) && b < len(rest) {
			steps++
			switch k, y := ks[j], uint32(rest[b]); {
			case k < y:
				j++
			case k > y:
				b++
			default:
				if recs[j].count > 0 {
					q, c := h.estimate(recs[j]), a+1+b
					dst[a*n+c], dst[c*n+a] = q, q
				}
				j++
				b++
			}
		}
	}
	return steps
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

// Export snapshots all accumulated records, sorted by (I, K): the rows
// in worker order, each already in partner order.
func (h *History) Export() []PairRecord {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ws := make([]uint32, 0, len(h.rows))
	for i := range h.rows {
		ws = append(ws, i)
	}
	slices.Sort(ws)
	out := make([]PairRecord, 0, len(h.rows))
	for _, i := range ws {
		r := h.rows[i]
		for j, k := range r.k {
			out = append(out, PairRecord{I: int(i), K: int(k), Sum: r.rec[j].sum, Count: r.rec[j].count})
		}
	}
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
		h.add(r.I, r.K, r.Sum, r.Count)
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
