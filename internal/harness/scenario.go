package harness

import (
	"context"
	"fmt"

	"casc/internal/scenario"
)

// ExpScenario is an extra experiment driving the discrete-event scenario
// engine: each sweep point is one built-in arrival-process scenario
// (Poisson baseline, heavy-tailed Gamma and Weibull renewal streams, and
// the hotspot flash crowd), run end to end through batch.Run with every
// solver as the dispatch policy and counterfactual decision tracing
// enabled — so the bench baseline pins, per (scenario, solver), both the
// deterministic total score and the mean per-round regret against the
// alternates not chosen.
const ExpScenario = "scenario"

// scenarioVariants are the sweep points, in x-axis order. The diurnal
// builtin is exercised by the unit tests instead; its 12-round cycle
// would force a different Rounds than the other points.
func scenarioVariants() []string { return []string{"poisson", "gamma", "weibull", "flash"} }

func runScenario(ctx context.Context, opt Options) (*Series, error) {
	series := &Series{
		Experiment: ExpScenario,
		Figure:     "Extra: scenario engine — arrival processes, SLO tiers, counterfactual regret",
		XLabel:     "scenario",
	}
	for _, variant := range scenarioVariants() {
		spec, err := scenario.Load(variant)
		if err != nil {
			return nil, err
		}
		spec.Seed = opt.Seed
		spec.Rounds = opt.Rounds
		spec.Workers.Rate *= opt.Scale
		spec.Tasks.Rate *= opt.Scale
		plan, err := scenario.Generate(spec)
		if err != nil {
			return nil, err
		}
		pt := Point{Label: variant}
		for _, name := range opt.Solvers {
			rep, err := scenario.Run(ctx, scenario.RunConfig{
				Plan:            plan,
				Solver:          name,
				CounterfactualK: -1,
				Budget:          opt.Budget,
				Metrics:         opt.Metrics,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: scenario %s/%s: %w", variant, name, err)
			}
			r := SolverResult{Name: name, Score: rep.Score}
			for _, bs := range rep.Result.Batches {
				sec := bs.Elapsed.Seconds()
				r.LatencySeconds = append(r.LatencySeconds, sec)
				r.BatchSeconds += sec
			}
			if len(rep.Result.Batches) > 0 {
				r.BatchSeconds /= float64(len(rep.Result.Batches))
			}
			if cf := rep.Counterfactual; cf != nil {
				regret := cf.MeanRegret
				r.Regret = &regret
			}
			pt.Results = append(pt.Results, r)
			if pt.Upper == 0 {
				// The carry-over dynamics — and therefore UPPER — depend on
				// the dispatch policy; record the first solver's bound as the
				// point's reference.
				pt.Upper = rep.Upper
			}
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "scenario %-8s %-7s score %10.2f regret %8.4f\n",
					variant, name, rep.Score, *r.Regret)
			}
		}
		series.Points = append(series.Points, pt)
	}
	return series, nil
}
