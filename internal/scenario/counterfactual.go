package scenario

import (
	"context"
	"fmt"

	"casc/internal/assign"
	"casc/internal/model"
	"casc/internal/trace"
)

// Counterfactual decision tracing: after every round's chosen assignment
// is committed, the evaluator re-solves the identical instance with each
// alternate solver and records the score of the road not taken. The
// per-round regret — best alternate score minus chosen score, floored at
// zero — quantifies what the chosen policy left on the table.
//
// Alternate solves are seeded assign.ComponentSeed(seed, round*K+i+1):
// forked from the component-seed derivation rather than the round seed so
// a randomized alternate's stream can never collide with (or perturb) the
// chosen solver's own per-component streams. Deterministic alternates
// ignore the seed entirely, which keeps replays bitwise-stable with
// counterfactuals enabled (DESIGN.md §14).

// AlternateScore is one alternate solver's outcome on a round's instance.
type AlternateScore struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// Decision records one round's chosen score against its alternates.
type Decision struct {
	Round       int              `json:"round"`
	ChosenScore float64          `json:"chosen_score"`
	Alternates  []AlternateScore `json:"alternates"`
	// Regret is max(0, best alternate − chosen).
	Regret float64 `json:"regret"`
}

// CounterfactualReport aggregates the decisions of a run.
type CounterfactualReport struct {
	Chosen    string     `json:"chosen"`
	Decisions []Decision `json:"decisions"`
	// Solves counts alternate solver invocations.
	Solves int `json:"solves"`
	// TotalRegret, MeanRegret and MaxRegret summarize per-round regret
	// over rounds that solved an instance.
	TotalRegret float64 `json:"total_regret"`
	MeanRegret  float64 `json:"mean_regret"`
	MaxRegret   float64 `json:"max_regret"`
	// AltTotals[i] is alternate i's summed score over all solved rounds,
	// aligned with the alternate order of the spec.
	AltTotals []AlternateScore `json:"alt_totals"`
}

// finish computes the aggregate fields from the decision list.
func (r *CounterfactualReport) finish() {
	if len(r.Decisions) == 0 {
		return
	}
	for _, d := range r.Decisions {
		r.TotalRegret += d.Regret
		if d.Regret > r.MaxRegret {
			r.MaxRegret = d.Regret
		}
	}
	r.MeanRegret = r.TotalRegret / float64(len(r.Decisions))
}

// counterfactual is the batch.Config.Observer implementation.
type counterfactual struct {
	chosen     string
	alternates []string
	seed       int64
	tw         *trace.Writer
	rep        CounterfactualReport
	altTotals  []float64
}

// newCounterfactual builds the evaluator for spec's alternates, keeping
// the first k (k ≤ 0 keeps all). tw, when non-nil, receives one
// trace.Record per alternate per round under run name "cf:<solver>" —
// interleaved after the chosen record, so casc-trace summarize shows the
// chosen run and every counterfactual side by side.
func newCounterfactual(spec Spec, k int, tw *trace.Writer) (*counterfactual, error) {
	alts := spec.Alternates
	if k > 0 && k < len(alts) {
		alts = alts[:k]
	}
	if len(alts) == 0 {
		return nil, fmt.Errorf("scenario: counterfactuals requested but spec has no alternates")
	}
	for _, name := range alts {
		if name == spec.Solver {
			return nil, fmt.Errorf("scenario: alternate %q is the chosen solver", name)
		}
	}
	c := &counterfactual{
		chosen:     spec.Solver,
		alternates: alts,
		seed:       spec.Seed,
		tw:         tw,
		altTotals:  make([]float64, len(alts)),
	}
	c.rep.Chosen = spec.Solver
	return c, nil
}

// observe scores every alternate on the round's instance. in and a are
// nil on short-circuited rounds (nothing to re-solve). The instance is
// treated as read-only, per the batch.Config.Observer contract.
func (c *counterfactual) observe(ctx context.Context, round int, now float64, in *model.Instance, a *model.Assignment) error {
	if in == nil || a == nil {
		return nil
	}
	k := len(c.alternates)
	d := Decision{
		Round:       round,
		ChosenScore: dispatchScore(in, a),
		Alternates:  make([]AlternateScore, 0, k),
	}
	best := 0.0
	for i, name := range c.alternates {
		altSeed := assign.ComponentSeed(c.seed, round*k+i+1)
		solver, err := assign.ByName(name, altSeed)
		if err != nil {
			return fmt.Errorf("scenario: alternate %q: %w", name, err)
		}
		alt, err := solver.Solve(ctx, in)
		if err != nil {
			return fmt.Errorf("scenario: round %d alternate %q: %w", round, name, err)
		}
		if err := alt.Validate(in); err != nil {
			return fmt.Errorf("scenario: round %d alternate %q invalid: %w", round, name, err)
		}
		score := dispatchScore(in, alt)
		c.rep.Solves++
		c.altTotals[i] += score
		d.Alternates = append(d.Alternates, AlternateScore{Name: name, Score: score})
		if score > best {
			best = score
		}
		if c.tw != nil {
			rec := trace.Record{
				Run:     "cf:" + name,
				Round:   round,
				Time:    now,
				Solver:  name,
				Workers: len(in.Workers),
				Tasks:   len(in.Tasks),
				Score:   score,
				Upper:   assign.Upper(in),
			}
			for ti, ws := range alt.TaskWorkers {
				if len(ws) < in.B {
					continue
				}
				for _, wi := range ws {
					rec.Pairs = append(rec.Pairs, model.Pair{Worker: in.Workers[wi].ID, Task: in.Tasks[ti].ID})
				}
			}
			if err := c.tw.Append(rec); err != nil {
				return err
			}
		}
	}
	if best > d.ChosenScore {
		d.Regret = best - d.ChosenScore
	}
	c.rep.Decisions = append(c.rep.Decisions, d)
	return nil
}

// report finalizes and returns the run's counterfactual report.
func (c *counterfactual) report() *CounterfactualReport {
	for i, name := range c.alternates {
		c.rep.AltTotals = append(c.rep.AltTotals, AlternateScore{Name: name, Score: c.altTotals[i]})
	}
	c.rep.finish()
	return &c.rep
}

// dispatchScore is the dispatch-eligible score of an assignment: the sum
// of group qualities over tasks holding at least B workers — exactly the
// quantity batch.Run accumulates into BatchStats.Score at dispatch
// (model.GroupQuality is zero below B, so TotalScore matches).
func dispatchScore(in *model.Instance, a *model.Assignment) float64 {
	return a.TotalScore(in)
}
