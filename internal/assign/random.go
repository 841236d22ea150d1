package assign

import (
	"context"

	"casc/internal/model"
	"casc/internal/stats"
)

// Random is the RAND baseline of the paper's experiments (§VI-A): "it
// randomly chooses a task, and then randomly assigns a set of valid workers
// to it". Tasks are visited in random order; each receives up to a_j random
// available candidate workers, but only when at least B are available
// (groups below B produce zero revenue and would only waste workers).
type Random struct {
	seed int64
}

// NewRandom returns a RAND solver with the given seed.
func NewRandom(seed int64) *Random { return &Random{seed: seed} }

// Name implements Solver.
func (s *Random) Name() string { return "RAND" }

// Fork implements Forker: the fork adopts the derived component seed, so a
// decomposed RAND run is reproducible regardless of component order.
func (s *Random) Fork(seed int64) Solver { return NewRandom(seed) }

// Solve implements Solver.
func (s *Random) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	r := stats.NewRNG(s.seed)
	a := model.NewAssignment(in)
	avail := make([]bool, len(in.Workers))
	for i := range avail {
		avail[i] = true
	}
	order := r.Perm(len(in.Tasks))
	var pool []int
	for _, t := range order {
		if ctx.Err() != nil {
			return a, nil
		}
		pool = pool[:0]
		for _, w := range in.TaskCand[t] {
			if avail[w] {
				pool = append(pool, w)
			}
		}
		if len(pool) < in.B {
			continue
		}
		stats.Shuffle(r, pool)
		take := in.Tasks[t].Capacity
		if take > len(pool) {
			take = len(pool)
		}
		for _, w := range pool[:take] {
			a.Assign(w, t)
			avail[w] = false
		}
	}
	return a, nil
}
