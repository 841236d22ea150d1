package coop

// Cached memoizes a quality model. Models like Jaccard recompute a list
// merge on every call, History takes a lock and a map probe, and the
// solvers evaluate the same pairs many times (TPG's best-B-subset search,
// GT's best responses), so a per-instance memo pays for itself quickly: a
// serve-http batch (perfbench, 2 000 workers) makes ≈ 180 k quality calls
// over ≈ 20 k distinct pairs, so about 11 % of calls reach the base model.
// Cached is NOT safe for concurrent use; solvers are single-goroutine per
// instance.
//
// The memo is a flat open-addressing table: a power-of-two slice of
// {key, value} slots, Fibonacci hashing and linear probing, doubled at ¾
// load. A hit costs one hash and, usually, one slot read.
type Cached struct {
	Base  Model
	slots []cachedSlot
	shift uint // 64 − log2(len(slots)): Fibonacci hashing keeps the top bits
	used  int
}

// cachedSlot is one memo entry. key is the packed pair plus one, so the
// zero value marks an empty slot.
type cachedSlot struct {
	key uint64
	v   float64
}

// cachedMinBits sizes a fresh table at 1<<cachedMinBits slots.
const cachedMinBits = 6

// fib is 2^64/φ, the multiplier of Fibonacci hashing.
const fib = 0x9E3779B97F4A7C15

// NewCached wraps base with an unbounded memo table.
func NewCached(base Model) *Cached {
	return &Cached{Base: base, slots: make([]cachedSlot, 1<<cachedMinBits), shift: 64 - cachedMinBits}
}

// Quality implements Model. It assumes the base model is symmetric (all
// models in this repository are) and memoizes per unordered pair, calling
// the base once per pair. The key packs the pair into one uint64; worker
// indices therefore must fit in 32 bits, which they comfortably do (they
// index in-memory slices).
func (c *Cached) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	if i > k {
		i, k = k, i
	}
	// With 0 ≤ i < k < 1<<32 the packed pair is below 1<<64−1, so key ≠ 0.
	key := (uint64(uint32(i))<<32 | uint64(uint32(k))) + 1
	mask := uint64(len(c.slots) - 1)
	h := (key * fib) >> c.shift
	for {
		s := &c.slots[h]
		if s.key == key {
			return s.v
		}
		if s.key == 0 {
			break
		}
		h = (h + 1) & mask
	}
	v := c.Base.Quality(i, k)
	c.slots[h] = cachedSlot{key: key, v: v}
	c.used++
	if 4*c.used > 3*len(c.slots) {
		c.grow()
	}
	return v
}

// grow doubles the table and reinserts every entry.
func (c *Cached) grow() {
	old := c.slots
	c.slots = make([]cachedSlot, 2*len(old))
	c.shift--
	mask := uint64(len(c.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		h := (s.key * fib) >> c.shift
		for c.slots[h].key != 0 {
			h = (h + 1) & mask
		}
		c.slots[h] = s
	}
}

// NumWorkers implements Model.
func (c *Cached) NumWorkers() int { return c.Base.NumWorkers() }

// Unwrap returns the underlying model (errors.Unwrap convention).
func (c *Cached) Unwrap() Model { return c.Base }
