package coop

import (
	"fmt"
	"math"
	"sync"
)

// DecayHistory is a recency-weighted variant of the Equation 1 estimator:
// each shared-task rating is weighted by exp(−λ·(now − t)) where t is the
// rating's timestamp, so a pair's estimate tracks how they cooperate *now*
// rather than averaging over their whole past. With λ = 0 it degenerates to
// History. This is the natural production extension of Equation 1 — worker
// cooperation drifts as people join, burn out, or learn — and the paper's
// estimator is the λ = 0 special case.
//
//	q_i(w_k) = α·ω + (1−α) · Σ_j w_j·s_j / Σ_j w_j,   w_j = exp(−λ·(now−t_j))
//
// DecayHistory is safe for concurrent use.
type DecayHistory struct {
	mu     sync.RWMutex
	n      int
	alpha  float64
	omega  float64
	lambda float64
	now    float64
	recs   map[uint64][]decayRec
}

type decayRec struct {
	score float64
	time  float64
}

// NewDecayHistory returns an empty decayed estimator. lambda ≥ 0 is the
// decay rate per time unit.
func NewDecayHistory(n int, alpha, omega, lambda float64) *DecayHistory {
	if alpha < 0 || alpha > 1 || omega < 0 || omega > 1 {
		panic(fmt.Sprintf("coop: alpha/omega (%v,%v) outside [0,1]", alpha, omega))
	}
	if lambda < 0 {
		panic("coop: negative decay rate")
	}
	return &DecayHistory{
		n: n, alpha: alpha, omega: omega, lambda: lambda,
		recs: make(map[uint64][]decayRec),
	}
}

// Advance moves the estimator's clock forward to now; Quality weights are
// relative to this time. Moving backwards is rejected.
func (h *DecayHistory) Advance(now float64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if now < h.now {
		return fmt.Errorf("coop: clock moved backwards (%v < %v)", now, h.now)
	}
	h.now = now
	return nil
}

// Now returns the estimator's clock.
func (h *DecayHistory) Now() float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.now
}

// Record registers a rating for workers i and k at the current clock. It
// panics on the same inputs as History.Record.
func (h *DecayHistory) Record(i, k int, score float64) {
	checkRecord(i, k, score)
	key := keyOf(i, k)
	h.mu.Lock()
	h.recs[key] = append(h.recs[key], decayRec{score: score, time: h.now})
	h.mu.Unlock()
}

// RecordGroup registers a rated task completed by a whole worker group.
func (h *DecayHistory) RecordGroup(workers []int, score float64) {
	for a := 0; a < len(workers); a++ {
		for b := a + 1; b < len(workers); b++ {
			h.Record(workers[a], workers[b], score)
		}
	}
}

// Quality implements Model.
func (h *DecayHistory) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	h.mu.RLock()
	recs := h.recs[keyOf(i, k)]
	now := h.now
	lambda := h.lambda
	h.mu.RUnlock()
	hist := h.omega
	if len(recs) > 0 {
		var wsum, sum float64
		for _, r := range recs {
			w := math.Exp(-lambda * (now - r.time))
			wsum += w
			sum += w * r.score
		}
		if wsum > 0 {
			hist = sum / wsum
		}
	}
	return h.alpha*h.omega + (1-h.alpha)*hist
}

// NumWorkers implements Model.
func (h *DecayHistory) NumWorkers() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.n
}

// Grow raises the worker count to at least n.
func (h *DecayHistory) Grow(n int) {
	h.mu.Lock()
	if n > h.n {
		h.n = n
	}
	h.mu.Unlock()
}

// Compact drops records whose weight at the current clock is below the
// threshold (they no longer influence estimates meaningfully) and returns
// how many were removed. Platforms call this periodically to bound memory.
func (h *DecayHistory) Compact(minWeight float64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lambda == 0 || minWeight <= 0 {
		return 0
	}
	removed := 0
	for key, recs := range h.recs {
		kept := recs[:0]
		for _, r := range recs {
			if math.Exp(-h.lambda*(h.now-r.time)) >= minWeight {
				kept = append(kept, r)
			} else {
				removed++
			}
		}
		if len(kept) == 0 {
			delete(h.recs, key)
		} else {
			h.recs[key] = kept
		}
	}
	return removed
}
