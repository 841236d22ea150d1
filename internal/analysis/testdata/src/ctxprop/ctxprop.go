// Package ctxprop is a casc-lint golden fixture for context propagation:
// a callee that loops on the solve path must receive the caller's ctx, not
// a freshly minted root context that can never be cancelled.
package ctxprop

import (
	"context"

	"casc/internal/analysis/testdata/src/ctxprop/loops"
)

type Solver struct{}

// Solve loops by contract — handing it context.Background() severs the
// cancellation chain ctxloop guarantees inside it.
func (s *Solver) Solve(ctx context.Context, in []int) int {
	n := 0
	for range in {
		if ctx.Err() != nil {
			return n
		}
		n++
	}
	return n
}

// Spin loops directly.
func Spin(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		total += i
	}
	return total
}

// wraps has no loop of its own but calls one — the one-level summary.
func wraps(ctx context.Context, n int) int {
	return Spin(ctx, n)
}

// Flat never loops; a fresh context is harmless here.
func Flat(ctx context.Context, a int) int {
	_ = ctx
	return a + 1
}

func DeadSolve(ctx context.Context, in []int) int {
	s := &Solver{}
	return s.Solve(context.Background(), in) // want ctxprop
}

func NoCtxCaller(in []int) int {
	return Spin(context.TODO(), len(in)) // want ctxprop
}

func OneLevel(n int) int {
	return wraps(context.Background(), n) // want ctxprop
}

// Cross-package callees: a loop in another package, one level down in
// that package, and one reached through a local function.
func CrossPackage(n int) int {
	return loops.Drain(context.Background(), n) // want ctxprop
}

func CrossOneLevel(n int) int {
	return loops.Relay(context.TODO(), n) // want ctxprop
}

func drains(ctx context.Context, n int) int {
	return loops.Drain(ctx, n)
}

func CrossViaLocal(n int) int {
	return drains(context.Background(), n) // want ctxprop
}

func CrossFlatOK(n int) int {
	return loops.Once(context.Background(), n) // ok: callee never loops
}

func PropagatesOK(ctx context.Context, in []int) int {
	return new(Solver).Solve(ctx, in) // ok: caller's ctx flows through
}

func FlatOK() int {
	return Flat(context.Background(), 1) // ok: callee never loops
}
