// Package coop models the pairwise cooperation quality between workers.
//
// The paper assumes the platform knows a cooperation quality score
// q_i(w_k) ∈ [0,1] for every worker pair, estimated from historical
// co-operation records with Equation 1:
//
//	q_i(w_k) = α·ω + (1−α)·( Σ_{t_j ∈ T_ik} s_j / |T_ik| )
//
// where ω is a base quality configured by the platform, s_j is the rating of
// a task both workers contributed to, and α reconciles the prior with the
// history. This package provides that estimator plus the two quality models
// the experiments use: the co-group Jaccard model for the Meetup dataset
// (§VI-A: q_i(w_k) = 0.5·0.5 + 0.5·c_ik/C_ik) and a deterministic synthetic
// model for generated workloads.
package coop

import (
	"fmt"
	"math"
)

// Model yields the cooperation quality q_i(w_k) between two workers
// addressed by dense indices. Implementations must be symmetric unless
// documented otherwise and must return values in [0,1]. Quality(i,i) is
// never meaningful; implementations should return 0 for it.
type Model interface {
	// Quality returns q_i(w_k) for workers i and k.
	Quality(i, k int) float64
	// NumWorkers returns the number of workers the model covers.
	NumWorkers() int
}

// blockReader is the method of model.BlockModel: QualityBlock sets
// dst[a·n+b] to Quality(ids[a], ids[b]) for n strictly ascending IDs.
// Subset and Cached forward it to the model they wrap when it has one.
type blockReader interface {
	QualityBlock(ids []int, dst []float64)
}

// readPairs fills dst as QualityBlock does, one Quality call per ordered
// pair, row by row, the diagonal included.
func readPairs(m Model, ids []int, dst []float64) {
	n := len(ids)
	for a, x := range ids {
		row := dst[a*n : (a+1)*n]
		for b, y := range ids {
			row[b] = m.Quality(x, y)
		}
	}
}

// Matrix is a dense symmetric quality matrix. Suitable for small instances
// and tests; at m workers it stores m^2 float64s.
type Matrix struct {
	n int
	q []float64
}

// NewMatrix returns an all-zero n x n matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("coop: negative worker count")
	}
	return &Matrix{n: n, q: make([]float64, n*n)}
}

// Set assigns q_i(w_k) = q_k(w_i) = v. It panics outside [0,1] or on i == k.
func (m *Matrix) Set(i, k int, v float64) {
	if i == k {
		panic("coop: self quality is undefined")
	}
	if v < 0 || v > 1 || math.IsNaN(v) {
		panic(fmt.Sprintf("coop: quality %v outside [0,1]", v))
	}
	m.q[i*m.n+k] = v
	m.q[k*m.n+i] = v
}

// Quality implements Model.
func (m *Matrix) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	return m.q[i*m.n+k]
}

// NumWorkers implements Model.
func (m *Matrix) NumWorkers() int { return m.n }

// Func adapts a plain function to Model. The function must already be
// symmetric and bounded; Func zeroes the diagonal.
//
//casclint:ignore deadcode test quality model: the model and arena-equivalence fuzzers build tie-heavy instances from closures
type Func struct {
	N int
	F func(i, k int) float64
}

// Quality implements Model.
func (f Func) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	return f.F(i, k)
}

// NumWorkers implements Model.
func (f Func) NumWorkers() int { return f.N }

// Synthetic is a deterministic pseudo-random symmetric quality model: the
// quality of a pair is a hash of the unordered pair mixed with a seed,
// mapped into [0,1]. It needs O(1) memory regardless of worker count, which
// is what makes the m = 5,000 scalability experiment (Fig. 7) feasible
// without a 200 MB matrix.
type Synthetic struct {
	N    int
	Seed uint64
}

// Quality implements Model.
func (s Synthetic) Quality(i, k int) float64 {
	if i == k {
		return 0
	}
	if i > k {
		i, k = k, i
	}
	h := splitmix64(uint64(i)<<32 ^ uint64(k) ^ s.Seed*0x9E3779B97F4A7C15)
	return float64(h>>11) / float64(1<<53)
}

// NumWorkers implements Model.
func (s Synthetic) NumWorkers() int { return s.N }

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
