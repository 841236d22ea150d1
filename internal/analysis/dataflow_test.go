package analysis

import (
	"go/ast"
	"testing"
)

// assignedSet is the forward fact for the tests: the set of variable names
// that may have been assigned on some path to a point.
type assignedSet map[string]bool

func assignedNames(n ast.Node) []string {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return nil
	}
	var names []string
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			names = append(names, id.Name)
		}
	}
	return names
}

func assignedProblem() FlowProblem[assignedSet] {
	return FlowProblem[assignedSet]{
		Boundary: func() assignedSet { return assignedSet{} },
		Transfer: func(b *Block, in assignedSet) assignedSet {
			out := make(assignedSet, len(in))
			for k := range in {
				out[k] = true
			}
			for _, n := range b.Nodes {
				for _, name := range assignedNames(n) {
					out[name] = true
				}
			}
			return out
		},
		Join: func(a, b assignedSet) assignedSet {
			out := make(assignedSet, len(a)+len(b))
			for k := range a {
				out[k] = true
			}
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b assignedSet) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
}

// TestSolveForwardJoinsBranches: assignments on either arm of an if must
// both be present (may-analysis union) after the merge.
func TestSolveForwardJoinsBranches(t *testing.T) {
	g := buildTestCFG(t, `c := true
	if c {
		a := 1
		_ = a
	} else {
		b := 2
		_ = b
	}
	_ = c`)
	res := SolveForward(g, assignedProblem())
	in, ok := res.In[g.Exit]
	if !ok {
		t.Fatal("no fact computed at exit")
	}
	for _, name := range []string{"a", "b", "c"} {
		if !in[name] {
			t.Errorf("exit fact missing %q; got %v", name, in)
		}
	}
}

// TestSolveForwardLoopFixpoint: a fact generated inside a loop body must
// propagate around the back edge and stabilize.
func TestSolveForwardLoopFixpoint(t *testing.T) {
	g := buildTestCFG(t, `n := 3
	for i := 0; i < n; i++ {
		x := i
		_ = x
	}
	_ = n`)
	res := SolveForward(g, assignedProblem())
	head := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.ForStmt); return ok })
	if head == nil {
		t.Fatal("no loop head")
	}
	// After one trip around the loop the head's input must include the
	// body-local assignment; the solver only terminates once that fact has
	// circulated.
	if in := res.In[head]; !in["x"] {
		t.Errorf("loop head input missing body-assigned x: %v", in)
	}
	if in := res.In[g.Exit]; !in["x"] || !in["n"] {
		t.Errorf("exit fact incomplete: %v", in)
	}
}

// TestSolveForwardSkipsUnreachable: blocks with no path from entry get no
// fact at all rather than a bottom/boundary fact.
func TestSolveForwardSkipsUnreachable(t *testing.T) {
	g := buildTestCFG(t, "return\nx := 1\n_ = x")
	res := SolveForward(g, assignedProblem())
	dead := blockWith(g, func(b *Block) bool {
		for _, n := range b.Nodes {
			if len(assignedNames(n)) > 0 {
				return true
			}
		}
		return false
	})
	if dead == nil {
		t.Fatal("dead block not found")
	}
	if _, ok := res.In[dead]; ok {
		t.Error("unreachable block received a forward fact")
	}
}
