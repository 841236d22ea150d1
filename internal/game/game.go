// Package game provides a generic best-response dynamics engine for exact
// potential games (Monderer & Shapley 1996), the machinery behind the
// paper's game theoretic approach (§V). The CA-SC strategic game — workers
// as players, valid tasks as strategies, ΔQ as utility — is an exact
// potential game with the overall cooperation quality Q(T) as its potential
// function (Theorem V.1), so best-response dynamics converge to a pure Nash
// equilibrium. The engine also implements the paper's two optimizations:
//
//   - TSI (threshold stop of the iteration): stop once a full round improves
//     the potential by less than ε times its current value (§V-D).
//   - LUB (lazy updating of best responses): recompute a player's best
//     response only when a move may have changed it; which players are
//     affected by a move is reported by the Game implementation following
//     Theorems V.3 and V.4 (§V-D).
package game

import (
	"context"
	"math"
	"sort"
)

// Game is a strategic game exposed to the best-response engine. Player and
// strategy identifiers are small dense integers owned by the implementation.
type Game interface {
	// NumPlayers returns the number of players.
	NumPlayers() int
	// BestResponse returns player p's best strategy against the other
	// players' current strategies, together with the utility gain over p's
	// current strategy. improving is false when no strictly better strategy
	// exists (gain is then 0).
	BestResponse(p int) (strategy int, gain float64, improving bool)
	// Apply switches player p to the given strategy. It returns the players
	// whose best responses may have changed as a consequence (used by LUB).
	// Returning a nil slice means "unknown": the engine marks every player.
	Apply(p, strategy int) (affected []int)
	// Potential returns the current value of the exact potential function.
	Potential() float64
}

// StopReason records why the dynamics ended.
type StopReason string

const (
	// StopNash means a full verification pass found no improving move: the
	// joint strategy is a pure Nash equilibrium.
	StopNash StopReason = "nash"
	// StopThreshold means the TSI rule fired.
	StopThreshold StopReason = "threshold"
	// StopMaxRounds means the round cap was hit.
	StopMaxRounds StopReason = "max-rounds"
	// StopContext means the context was cancelled.
	StopContext StopReason = "context"
)

// Options configure the dynamics.
type Options struct {
	// Epsilon is the TSI threshold: stop when a round's potential gain is
	// below Epsilon times the current potential. Zero disables TSI and runs
	// to a Nash equilibrium.
	Epsilon float64
	// Lazy enables LUB: only players marked dirty by Apply are revisited.
	// When the dirty set drains, one full verification pass certifies the
	// Nash property (so correctness never depends on the affected sets being
	// complete — they only speed things up).
	Lazy bool
	// MaxRounds caps the number of rounds; 0 means the engine's default
	// (10 × players + 100), a safety net far above the convergence bound of
	// Lemma V.1 for the paper's workloads.
	MaxRounds int
	// MinGain is the numeric floor below which a utility improvement is
	// treated as noise; defaults to 1e-12. It prevents float round-off from
	// cycling the dynamics forever.
	MinGain float64
	// Context, when non-nil, allows cancelling long runs.
	Context context.Context
	// OnRound, when non-nil, is invoked after every round with the round
	// number (1-based), the potential value, and the round's gain. It
	// exposes the anytime profile of the dynamics (§V-D: GT "can be
	// interrupted at anytime and a valid solution can still be returned").
	OnRound func(round int, potential, gain float64)
	// GainPriority processes players in descending order of their last
	// observed improvement instead of index order: players who recently had
	// profitable deviations are likely to have them again, so front-loading
	// them accelerates the potential climb per best-response call. An
	// engine-level scheduling ablation; it never changes what converges,
	// only how fast (see BenchmarkAblationGainPriority).
	GainPriority bool
	// Scratch, when non-nil, supplies reusable per-run buffers so a
	// steady-state Run allocates nothing. The buffers are resized to the
	// player count and fully re-initialized, so reuse never changes the
	// dynamics — it only recycles memory. Not safe for concurrent Runs.
	Scratch *Scratch
}

// Scratch holds the engine's per-run working memory for reuse across Runs
// (see Options.Scratch). The zero value is ready to use.
type Scratch struct {
	dirty    []bool
	lastGain []float64
	queue    []int
	cur      []int
}

// prepare resizes the buffers for n players, reusing capacity.
func (s *Scratch) prepare(n int) ([]bool, []float64, []int, []int) {
	if cap(s.dirty) < n {
		s.dirty = make([]bool, n)
		s.lastGain = make([]float64, n)
		s.queue = make([]int, 0, n)
		s.cur = make([]int, 0, n)
	}
	s.dirty = s.dirty[:n]
	s.lastGain = s.lastGain[:n]
	for i := range s.dirty {
		s.dirty[i] = false
		s.lastGain[i] = 0
	}
	return s.dirty, s.lastGain, s.queue[:0], s.cur[:0]
}

// Result reports what the dynamics did.
type Result struct {
	Rounds         int
	Moves          int
	Reason         StopReason
	FinalPotential float64
	// BestResponseCalls counts utility maximizations performed; LUB's
	// savings show up here.
	BestResponseCalls int
}

// Run executes best-response dynamics on g until a pure Nash equilibrium,
// the TSI threshold, the round cap, or context cancellation.
func Run(g Game, opts Options) Result {
	n := g.NumPlayers()
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10*n + 100
	}
	minGain := opts.MinGain
	if minGain <= 0 {
		minGain = 1e-12
	}
	ctx := opts.Context

	var (
		dirty    []bool
		lastGain []float64
		queue    []int
		cur      []int
	)
	if opts.Scratch != nil {
		dirty, lastGain, queue, cur = opts.Scratch.prepare(n)
	} else {
		dirty = make([]bool, n)
		lastGain = make([]float64, n)
		queue = make([]int, 0, n)
	}
	markAll := func() {
		queue = queue[:0]
		for p := 0; p < n; p++ {
			dirty[p] = true
			queue = append(queue, p)
		}
	}
	mark := func(p int) {
		if !dirty[p] {
			dirty[p] = true
			queue = append(queue, p)
		}
	}
	markAll()

	res := Result{}
	for res.Rounds < maxRounds {
		if ctx != nil && ctx.Err() != nil {
			res.Reason = StopContext
			break
		}
		res.Rounds++
		roundGain := 0.0
		roundMoves := 0
		// Process the current queue snapshot as one "round". New marks made
		// during the round land in the next round's queue. The swap keeps
		// both buffers' storage alive so a scratch-backed run never
		// reallocates: each appears at most n long (mark is dirty-guarded).
		cur = cur[:0]
		cur = append(cur, queue...)
		queue = queue[:0]
		if opts.GainPriority {
			sort.SliceStable(cur, func(a, b int) bool { return lastGain[cur[a]] > lastGain[cur[b]] })
		}
		for _, p := range cur {
			dirty[p] = false
		}
		for _, p := range cur {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			s, gain, improving := g.BestResponse(p)
			res.BestResponseCalls++
			if !improving || gain <= minGain {
				lastGain[p] = 0
				continue
			}
			lastGain[p] = gain
			affected := g.Apply(p, s)
			res.Moves++
			roundMoves++
			roundGain += gain
			if opts.Lazy {
				if affected == nil {
					markAll()
				} else {
					for _, a := range affected {
						mark(a)
					}
				}
			}
		}
		if ctx != nil && ctx.Err() != nil {
			res.Reason = StopContext
			break
		}
		if opts.OnRound != nil {
			opts.OnRound(res.Rounds, g.Potential(), roundGain)
		}
		if !opts.Lazy {
			// Plain GT revisits every player each round.
			if roundMoves == 0 {
				res.Reason = StopNash
				break
			}
			markAll()
		} else if len(queue) == 0 {
			if roundMoves == 0 {
				// Dirty set drained and the last pass moved nobody; verify
				// the Nash property with one full pass.
				if p, ok := findImproving(g, minGain, &res); ok {
					mark(p)
					continue
				}
				res.Reason = StopNash
				break
			}
			// Moves happened but produced no new dirty marks (affected sets
			// may be empty); verify before declaring convergence.
			if p, ok := findImproving(g, minGain, &res); ok {
				mark(p)
				continue
			}
			res.Reason = StopNash
			break
		}
		if opts.Epsilon > 0 && roundGain < opts.Epsilon*math.Max(g.Potential(), minGain) {
			res.Reason = StopThreshold
			break
		}
	}
	if res.Reason == "" {
		res.Reason = StopMaxRounds
	}
	res.FinalPotential = g.Potential()
	return res
}

func findImproving(g Game, minGain float64, res *Result) (int, bool) {
	for p := 0; p < g.NumPlayers(); p++ {
		_, gain, improving := g.BestResponse(p)
		res.BestResponseCalls++
		if improving && gain > minGain {
			return p, true
		}
	}
	return 0, false
}

// IsNash reports whether no player has a strictly improving deviation of
// more than minGain. It is a verification helper for tests and callers.
//
//casclint:ignore deadcode reference oracle: the game and assign tests verify equilibria with it
func IsNash(g Game, minGain float64) bool {
	if minGain <= 0 {
		minGain = 1e-12
	}
	for p := 0; p < g.NumPlayers(); p++ {
		if _, gain, improving := g.BestResponse(p); improving && gain > minGain {
			return false
		}
	}
	return true
}
