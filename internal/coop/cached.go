package coop

// Cached memoizes a quality model. Models like Jaccard recompute a list
// merge on every call, and the solvers evaluate the same pairs many times
// (TPG's best-B-subset search, GT's best responses), so a per-instance memo
// pays for itself quickly: one batch at Table II defaults touches ~10^5
// distinct pairs but makes ~10^7 quality calls. Cached is NOT safe for
// concurrent use; solvers are single-goroutine per instance.
type Cached struct {
	Base Model
	memo map[uint64]float64
}

// NewCached wraps base with an unbounded memo table.
func NewCached(base Model) *Cached {
	return &Cached{Base: base, memo: make(map[uint64]float64)}
}

// Quality implements Model. It assumes the base model is symmetric (all
// models in this repository are) and memoizes per unordered pair. The key
// packs the pair into one uint64; worker indices therefore must fit in 32
// bits, which they comfortably do (they index in-memory slices).
func (c *Cached) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	if i > k {
		i, k = k, i
	}
	key := uint64(uint32(i))<<32 | uint64(uint32(k))
	if v, ok := c.memo[key]; ok {
		return v
	}
	v := c.Base.Quality(i, k)
	c.memo[key] = v
	return v
}

// NumWorkers implements Model.
func (c *Cached) NumWorkers() int { return c.Base.NumWorkers() }

// Unwrap returns the underlying model (errors.Unwrap convention).
func (c *Cached) Unwrap() Model { return c.Base }
