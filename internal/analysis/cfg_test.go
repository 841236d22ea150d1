package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildTestCFG parses a function body (as source text), builds its CFG and
// checks the structural invariants.
func buildTestCFG(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	g := BuildCFG(fd.Body)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, src)
	}
	return g
}

// Returns reports whether the block ends in a return statement.
func (b *Block) Returns() bool {
	if len(b.Nodes) == 0 {
		return false
	}
	_, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
	return ok
}

// CheckInvariants verifies the structural CFG invariants: a single entry
// with no predecessors, an exit with no successors, mutually consistent
// edges, and dense block indices. Fuzzing (FuzzCFG) layers reachability
// checks on top for bodies whose grammar guarantees a terminating path.
func (g *Graph) CheckInvariants() error {
	if g.Entry == nil || g.Exit == nil {
		return fmt.Errorf("cfg: nil entry or exit")
	}
	if len(g.Entry.Preds) != 0 {
		return fmt.Errorf("cfg: entry has %d predecessors", len(g.Entry.Preds))
	}
	if len(g.Exit.Succs) != 0 {
		return fmt.Errorf("cfg: exit has %d successors", len(g.Exit.Succs))
	}
	index := make(map[*Block]bool, len(g.Blocks))
	for i, b := range g.Blocks {
		if b == nil {
			return fmt.Errorf("cfg: nil block at %d", i)
		}
		if b.Index != i {
			return fmt.Errorf("cfg: block %d carries index %d", i, b.Index)
		}
		if index[b] {
			return fmt.Errorf("cfg: block %d appears twice", i)
		}
		index[b] = true
	}
	if !index[g.Entry] || !index[g.Exit] {
		return fmt.Errorf("cfg: entry or exit not in Blocks")
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !index[s] {
				return fmt.Errorf("cfg: block %d has successor outside the graph", b.Index)
			}
			if !containsBlock(s.Preds, b) {
				return fmt.Errorf("cfg: edge %d->%d missing from Preds", b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !index[p] {
				return fmt.Errorf("cfg: block %d has predecessor outside the graph", b.Index)
			}
			if !containsBlock(p.Succs, b) {
				return fmt.Errorf("cfg: edge %d->%d missing from Succs", p.Index, b.Index)
			}
		}
		if seen := map[*Block]bool{}; true {
			for _, s := range b.Succs {
				if seen[s] {
					return fmt.Errorf("cfg: duplicate edge %d->%d", b.Index, s.Index)
				}
				seen[s] = true
			}
		}
	}
	return nil
}

// Reachable returns the set of blocks reachable from entry.
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func containsBlock(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

// blockWith returns the first block for which match returns true, or nil.
func blockWith(g *Graph, match func(*Block) bool) *Block {
	for _, b := range g.Blocks {
		if match(b) {
			return b
		}
	}
	return nil
}

// hasNodeText reports whether any node of b renders (via its position span
// in the original source) — blocks are matched structurally instead, so
// tests key on node types and counts.
func countNodes(g *Graph, match func(ast.Node) bool) int {
	n := 0
	for _, b := range g.Blocks {
		for _, node := range b.Nodes {
			if match(node) {
				n++
			}
		}
	}
	return n
}

func TestCFGStraightLine(t *testing.T) {
	g := buildTestCFG(t, "x := 1\nx++\n_ = x")
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable in straight-line code")
	}
	if n := countNodes(g, func(n ast.Node) bool { _, ok := n.(*ast.IncDecStmt); return ok }); n != 1 {
		t.Fatalf("x++ appears %d times, want 1", n)
	}
}

func TestCFGIfElseMerges(t *testing.T) {
	g := buildTestCFG(t, "x := 1\nif x > 0 {\n\tx = 2\n} else {\n\tx = 3\n}\n_ = x")
	cond := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.IfStmt); return ok })
	if cond == nil {
		t.Fatal("no block carries the IfStmt as Ctrl")
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("if condition block has %d successors, want 2 (then, else)", len(cond.Succs))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGIfWithoutElse(t *testing.T) {
	g := buildTestCFG(t, "x := 1\nif x > 0 {\n\tx = 2\n}\n_ = x")
	cond := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.IfStmt); return ok })
	if cond == nil || len(cond.Succs) != 2 {
		t.Fatal("if-without-else must branch to both the body and the after block")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := buildTestCFG(t, "x := 0\nfor i := 0; i < 3; i++ {\n\tx += i\n}\n_ = x")
	head := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.ForStmt); return ok })
	if head == nil {
		t.Fatal("no loop head block")
	}
	// The head must be re-enterable: some block (body or post) loops back.
	back := false
	for _, p := range head.Preds {
		if p != g.Entry && len(head.Preds) > 1 {
			back = true
		}
	}
	if !back {
		t.Fatalf("loop head has no back edge; preds %d", len(head.Preds))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable past a conditional loop")
	}
}

func TestCFGInfiniteLoopNoExit(t *testing.T) {
	g := buildTestCFG(t, "x := 0\nfor {\n\tx++\n}")
	if g.Reachable()[g.Exit] {
		t.Fatal("exit must be unreachable past `for {}` with no break")
	}
}

func TestCFGBreakReachesExit(t *testing.T) {
	g := buildTestCFG(t, "x := 0\nfor {\n\tif x > 2 {\n\t\tbreak\n\t}\n\tx++\n}\n_ = x")
	if !g.Reachable()[g.Exit] {
		t.Fatal("break must make the after-loop block (and exit) reachable")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := buildTestCFG(t, `x := 0
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if x > 1 {
				break outer
			}
			x++
		}
	}
	_ = x`)
	if !g.Reachable()[g.Exit] {
		t.Fatal("labeled break must reach past the outer loop")
	}
}

func TestCFGLabeledContinue(t *testing.T) {
	g := buildTestCFG(t, `x := 0
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if x > 1 {
				continue outer
			}
			x++
		}
	}
	_ = x`)
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable with labeled continue")
	}
}

func TestCFGGoto(t *testing.T) {
	g := buildTestCFG(t, "x := 0\n\tgoto done\ndone:\n\tx++\n\t_ = x")
	if !g.Reachable()[g.Exit] {
		t.Fatal("goto target must stay connected to exit")
	}
	if n := countNodes(g, func(n ast.Node) bool { _, ok := n.(*ast.IncDecStmt); return ok }); n != 1 {
		t.Fatalf("x++ after label appears %d times, want 1", n)
	}
}

func TestCFGPanicEndsPath(t *testing.T) {
	g := buildTestCFG(t, "x := 1\nif x > 0 {\n\tpanic(\"boom\")\n}\n_ = x")
	pb := blockWith(g, func(b *Block) bool {
		if len(b.Nodes) == 0 {
			return false
		}
		es, ok := b.Nodes[len(b.Nodes)-1].(*ast.ExprStmt)
		return ok && isPanicStmt(es)
	})
	if pb == nil {
		t.Fatal("no panic block found")
	}
	if len(pb.Succs) != 0 {
		t.Fatalf("panic block has %d successors, want 0 (panic-free path semantics)", len(pb.Succs))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("the non-panicking path must still reach exit")
	}
}

func TestCFGReturnEdgesToExit(t *testing.T) {
	g := buildTestCFG(t, "x := 1\nif x > 0 {\n\treturn\n}\n_ = x")
	for _, b := range g.Blocks {
		if !b.Returns() {
			continue
		}
		if !containsBlock(b.Succs, g.Exit) {
			t.Fatalf("return block %d does not edge to exit", b.Index)
		}
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildTestCFG(t, `x := 1
	switch x {
	case 1:
		x = 10
		fallthrough
	case 2:
		x = 20
	default:
		x = 30
	}
	_ = x`)
	// The fallthrough clause block must have two predecessors: the switch
	// head and the falling-through clause.
	second := blockWith(g, func(b *Block) bool {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Value == "20" {
					return true
				}
			}
		}
		return false
	})
	if second == nil {
		t.Fatal("clause block for case 2 not found")
	}
	if len(second.Preds) != 2 {
		t.Fatalf("fallthrough target has %d preds, want 2 (head + falling clause)", len(second.Preds))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGSwitchNoDefaultFallsPast(t *testing.T) {
	g := buildTestCFG(t, "x := 1\nswitch x {\ncase 1:\n\tx = 10\n}\n_ = x")
	head := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.SwitchStmt); return ok })
	if head == nil {
		t.Fatal("no switch head")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("defaultless switch head has %d succs, want 2 (clause + after)", len(head.Succs))
	}
}

func TestCFGTypeSwitch(t *testing.T) {
	g := buildTestCFG(t, `var v interface{} = 1
	switch v.(type) {
	case int:
		_ = v
	case string:
		_ = v
	}
	_ = v`)
	head := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.TypeSwitchStmt); return ok })
	if head == nil {
		t.Fatal("no type-switch head")
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGSelect(t *testing.T) {
	g := buildTestCFG(t, `a := make(chan int)
	b := make(chan int)
	select {
	case v := <-a:
		_ = v
	case <-b:
	default:
	}
	_ = a`)
	head := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.SelectStmt); return ok })
	if head == nil {
		t.Fatal("no select head")
	}
	if len(head.Succs) != 3 {
		t.Fatalf("select head has %d succs, want 3 (two comms + default)", len(head.Succs))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGRangeLoop(t *testing.T) {
	g := buildTestCFG(t, "s := []int{1, 2}\nx := 0\nfor _, v := range s {\n\tx += v\n}\n_ = x")
	head := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.RangeStmt); return ok })
	if head == nil {
		t.Fatal("no range head")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("range head has %d succs, want 2 (body + after)", len(head.Succs))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGDeadCodeKept(t *testing.T) {
	g := buildTestCFG(t, "return\nx := 1\n_ = x")
	reach := g.Reachable()
	dead := blockWith(g, func(b *Block) bool {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.AssignStmt); ok {
				return true
			}
		}
		return false
	})
	if dead == nil {
		t.Fatal("dead code block was pruned; real statements must be kept")
	}
	if reach[dead] {
		t.Fatal("statements after return must be unreachable")
	}
}

func TestCFGDeferIsPlainNode(t *testing.T) {
	g := buildTestCFG(t, "defer func() {\n\t_ = 1\n}()\nx := 1\n_ = x")
	if n := countNodes(g, func(n ast.Node) bool { _, ok := n.(*ast.DeferStmt); return ok }); n != 1 {
		t.Fatalf("defer appears %d times, want 1 plain node", n)
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

// TestCFGFuncLitOpaque: statements inside a function literal must not leak
// into the enclosing function's CFG.
func TestCFGFuncLitOpaque(t *testing.T) {
	g := buildTestCFG(t, "f := func() {\n\tfor {\n\t}\n}\nf()")
	if h := blockWith(g, func(b *Block) bool { _, ok := b.Ctrl.(*ast.ForStmt); return ok }); h != nil {
		t.Fatal("the literal's infinite loop leaked into the outer CFG")
	}
	if !g.Reachable()[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

// TestCFGPruneKeepsSource verifies pruning only drops empty artifacts: the
// node count across blocks equals the statement count of the source.
func TestCFGPruneOnlyEmptyArtifacts(t *testing.T) {
	body := "x := 0\nif x > 1 {\n\tx = 2\n}\nfor i := 0; i < 2; i++ {\n\tx += i\n}\n_ = x"
	g := buildTestCFG(t, body)
	for _, b := range g.Blocks {
		if b == g.Entry || b == g.Exit {
			continue
		}
		if len(b.Nodes) == 0 && b.Ctrl == nil && len(b.Preds) == 0 {
			t.Fatalf("block %d is an unpruned empty artifact", b.Index)
		}
	}
	if !strings.Contains(body, "x := 0") {
		t.Fatal("self-check")
	}
}
