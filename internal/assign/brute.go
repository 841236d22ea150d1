package assign

import (
	"context"

	"casc/internal/model"
)

// BruteForce finds the true optimal assignment by exhaustive search over
// every worker's choice of candidate task (or none). CA-SC is NP-hard
// (Theorem II.1), so this is only feasible for tiny instances; tests use it
// as ground truth for the heuristics and the UPPER bound. The search space
// is Π_w (|cand_w|+1); Solve panics beyond MaxStates states to catch
// accidental misuse.
type BruteForce struct {
	// MaxStates caps the search-space size (default 50 million).
	MaxStates float64
}

// NewBruteForce returns a brute-force solver.
//
//casclint:ignore deadcode reference oracle: exact optimum the solver, UPPER and k-SP reduction tests compare against
func NewBruteForce() *BruteForce { return &BruteForce{} }

// Name implements Solver.
func (s *BruteForce) Name() string { return "OPT" }

// Solve implements Solver.
func (s *BruteForce) Solve(ctx context.Context, in *model.Instance) (*model.Assignment, error) {
	maxStates := s.MaxStates
	if maxStates <= 0 {
		maxStates = 5e7
	}
	states := 1.0
	for w := range in.Workers {
		states *= float64(len(in.WorkerCand[w]) + 1)
		if states > maxStates {
			panic("assign: brute-force search space too large")
		}
	}
	groups := newGroups(in)
	cur := make([]int, len(in.Workers))
	best := make([]int, len(in.Workers))
	for i := range cur {
		cur[i] = model.Unassigned
		best[i] = model.Unassigned
	}
	bestScore := -1.0
	var rec func(w int)
	rec = func(w int) {
		if ctx.Err() != nil {
			return
		}
		if w == len(in.Workers) {
			var total float64
			//casclint:ignore ctxloop bounded leaf evaluation over task groups; rec polls ctx on entry
			for _, g := range groups {
				total += g.Q()
			}
			if total > bestScore {
				bestScore = total
				copy(best, cur)
			}
			return
		}
		// Option: leave worker w unassigned.
		rec(w + 1)
		//casclint:ignore ctxloop cancellation is polled at every rec() entry, bounding the reaction to one branch step
		for _, t := range in.WorkerCand[w] {
			g := groups[t]
			if g.Len() >= g.Capacity() {
				continue
			}
			g.Join(w)
			cur[w] = t
			rec(w + 1)
			g.Leave(w)
			cur[w] = model.Unassigned
		}
	}
	rec(0)
	a := model.NewAssignment(in)
	//casclint:ignore ctxloop bounded materialization of the best assignment found before cancellation
	for w, t := range best {
		if t != model.Unassigned {
			a.Assign(w, t)
		}
	}
	return a, nil
}
