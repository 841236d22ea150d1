package assign

import (
	"context"

	"casc/internal/model"
)

// Warm carries no state, and every SolveWarm returns exactly what Solve
// returns. Warm, WarmStarter and the SolveWarm methods of TPG and GT stay
// only because the repository benchmark's timing wrapper (perfbench) names
// and forwards them: it type-asserts each GT fork to a method set that
// includes WarmStarter, so GT must keep the method at run time. Delete all
// four once that wrapper stops naming them.
type Warm struct{}

// WarmStarter is the method set of a solver with a SolveWarm; SolveWarm
// returns exactly what Solve does.
type WarmStarter interface {
	Solver
	SolveWarm(ctx context.Context, in *model.Instance, warm *Warm) (*model.Assignment, error)
}
