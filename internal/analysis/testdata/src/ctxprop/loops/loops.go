// Package loops holds the callees of the ctxprop fixture's cross-package
// cases. The fixture sees these functions through export data, so its
// call graph must match them to their source by package path and name.
package loops

import "context"

// Drain loops directly.
func Drain(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		total += i
	}
	return total
}

// Relay has no loop of its own but calls one in its own package.
func Relay(ctx context.Context, n int) int {
	return Drain(ctx, n)
}

// Once never loops.
func Once(ctx context.Context, n int) int {
	_ = ctx
	return n
}
