package assign

import (
	"math"

	"casc/internal/model"
)

// This file holds the two primitives behind UpperTight and Bounds: a
// stamp-deduplicated walk over a worker's co-candidates, which Upper's q̂
// also takes for workers not read from task blocks alone, and a bounded
// top-k selection. With them a bound costs O(Σ co-candidate pairs · k)
// with no sort, and its sums equal, bit for bit, those of sorting each
// list and summing its prefix. QHat selects with its own buffer of
// (value, worker) pairs (upper.go), in the same order.

// peerWalk enumerates co-candidates: the distinct workers sharing at least
// one candidate task with a worker — the only workers it can ever share a
// group with. One walk serves every worker of an instance.
type peerWalk struct {
	in    *model.Instance
	stamp []int32 // stamp[k] == w+1 once k was listed for worker w
	peers []int
	vals  []float64 // with task blocks only
}

func newPeerWalk(in *model.Instance) *peerWalk {
	p := &peerWalk{}
	p.reset(in)
	return p
}

// reset points the walk at in with no worker visited yet, reusing its
// storage when it is large enough.
func (p *peerWalk) reset(in *model.Instance) {
	n := len(in.Workers)
	p.in = in
	if in.Blocks != nil && cap(p.vals) < n {
		p.vals = make([]float64, 0, n)
	}
	if cap(p.stamp) < n {
		p.stamp = make([]int32, n)
		p.peers = make([]int, 0, n)
		return
	}
	p.stamp = p.stamp[:n]
	clear(p.stamp)
}

// of visits w's co-candidates in first-visit order. A co-candidate first
// met at a task with a block comes back as its quality q_w(k), read from
// w's row of that block, in vals; any other comes back in peers, for the
// caller to ask the model about. Both slices are reused by the next call.
func (p *peerWalk) of(w int) (peers []int, vals []float64) {
	p.peers, p.vals = p.peers[:0], p.vals[:0]
	mark := int32(w + 1)
	blocks := p.in.Blocks != nil
	for i, t := range p.in.WorkerCand[w] {
		if blocks {
			if row := p.in.BlockRow(w, i); row != nil {
				for b, k := range p.in.TaskCand[t] {
					if k != w && p.stamp[k] != mark {
						p.stamp[k] = mark
						p.vals = append(p.vals, row[b])
					}
				}
				continue
			}
		}
		for _, k := range p.in.TaskCand[t] {
			if k != w && p.stamp[k] != mark {
				p.stamp[k] = mark
				p.peers = append(p.peers, k)
			}
		}
	}
	return p.peers, p.vals
}

// topK selects, by insertion into a buffer of at most k values, the k
// largest (desc) or k smallest (!desc) of the values pushed since reset, in
// the order sort.Float64Slice ranks them: NaN below every number. vals() lists them as a prefix of the sorted list would, so
// summing them in that order gives the sorted prefix sum's bits: values
// tied under that order are equal numbers, ±0 or NaNs, and none of those
// changes a sum that starts at +0.
type topK struct {
	k    int
	desc bool
	buf  []float64
}

// newTopK's buffer holds the paper's k (B−1 ≤ 4, capacities of a few
// seats) without regrowing; a larger k grows it by append.
func newTopK() *topK { return &topK{buf: make([]float64, 0, 8)} }

func (s *topK) reset(k int, desc bool) {
	s.k, s.desc, s.buf = max(k, 0), desc, s.buf[:0]
}

// before reports whether a ranks strictly ahead of b.
func (s *topK) before(a, b float64) bool {
	if s.desc {
		a, b = b, a
	}
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

func (s *topK) push(v float64) {
	n := len(s.buf)
	if n == s.k {
		if n == 0 || !s.before(v, s.buf[n-1]) {
			return
		}
		n-- // v displaces the current last
	} else {
		s.buf = append(s.buf, 0)
	}
	i := n
	for i > 0 && s.before(v, s.buf[i-1]) {
		s.buf[i] = s.buf[i-1]
		i--
	}
	s.buf[i] = v
}

// vals returns the selected values, best first (at most k of them).
func (s *topK) vals() []float64 { return s.buf }
