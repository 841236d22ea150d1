package analysis

// dataflow.go is the worklist solver the CFG rules share. A FlowProblem
// packages one monotone dataflow problem over a Graph: facts of any type F,
// a boundary fact, a per-block transfer function, and join/equality. The
// solver runs forward to fixpoint, visiting only blocks reachable from the
// entry — facts on unreachable blocks stay absent, which consuming rules
// treat as bottom.
//
// Contract: Transfer and Join must not mutate their inputs; both return
// (possibly fresh) facts. Termination is the problem's responsibility:
// the fact lattice must have finite height (every rule here uses small
// bounded maps keyed by objects or canonical strings).

// FlowProblem describes one dataflow problem with fact type F.
type FlowProblem[F any] struct {
	// Boundary is the fact entering the entry block.
	Boundary func() F
	// Transfer applies one block's effect to the incoming fact.
	Transfer func(b *Block, in F) F
	// Join combines facts at control-flow merges.
	Join func(a, b F) F
	// Equal detects the fixpoint.
	Equal func(a, b F) bool
}

// FlowResult holds the solved facts per block. In is the fact before the
// block's transfer, Out the fact after it. Blocks unreachable from the
// entry are absent from both maps.
type FlowResult[F any] struct {
	In  map[*Block]F
	Out map[*Block]F
}

// SolveForward runs the problem from entry toward exit.
func SolveForward[F any](g *Graph, p FlowProblem[F]) FlowResult[F] {
	res := FlowResult[F]{In: map[*Block]F{}, Out: map[*Block]F{}}
	start := g.Entry

	worklist := []*Block{start}
	queued := map[*Block]bool{start: true}
	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		queued[b] = false

		var in F
		if b == start {
			in = p.Boundary()
		} else {
			first := true
			for _, src := range b.Preds {
				out, ok := res.Out[src]
				if !ok {
					continue // not yet computed; optimistic iteration
				}
				if first {
					in, first = out, false
				} else {
					in = p.Join(in, out)
				}
			}
			if first {
				continue // no source fact yet; a source will requeue us
			}
		}
		res.In[b] = in
		out := p.Transfer(b, in)
		if prev, ok := res.Out[b]; ok && p.Equal(prev, out) {
			continue
		}
		res.Out[b] = out
		for _, d := range b.Succs {
			if !queued[d] {
				queued[d] = true
				worklist = append(worklist, d)
			}
		}
	}
	return res
}
