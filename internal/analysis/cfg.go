package analysis

import (
	"go/ast"
	"go/token"
)

// This file builds the intraprocedural control-flow graph the dataflow
// rules (lockbalance, arenaescape, floatdet) run on. Blocks hold shallow
// nodes only: a plain statement appears whole, a control statement
// contributes its header expressions to the block it terminates (recorded
// in Ctrl) while its body statements land in successor blocks. Function
// literals are opaque: their bodies belong to a separate CFG built by
// whoever needs one.
//
// Panic terminates a path without an exit edge — the rules built on top
// reason about panic-free paths (DESIGN.md §13) — and defer is an ordinary
// node whose at-exit semantics are the consuming rule's business
// (lockbalance tracks deferred unlocks as a lattice component).

// Block is one basic block.
type Block struct {
	Index int
	// Nodes are the block's statements and control-header expressions in
	// execution order.
	Nodes []ast.Node
	// Ctrl is the control statement this block terminates with (an
	// *ast.IfStmt whose condition was just evaluated, the *ast.RangeStmt
	// of a loop head, ...), or nil for plain fallthrough blocks.
	Ctrl  ast.Stmt
	Succs []*Block
	Preds []*Block
}

// Graph is the CFG of one function body. Entry and Exit are synthetic:
// Entry has no predecessors, Exit no successors. A path that panics ends
// without reaching Exit.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// BuildCFG constructs the CFG of a function body. It is purely syntactic
// (no type information), so it can run on anything go/parser accepts;
// `panic` is recognized by name.
func BuildCFG(body *ast.BlockStmt) *Graph {
	b := &cfgBuilder{
		g:      &Graph{},
		labels: map[string]*Block{},
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = &Block{}
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	for _, pg := range b.gotos {
		if target := b.labels[pg.label]; target != nil {
			b.edge(pg.from, target)
		}
	}
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	b.prune()
	for i, blk := range b.g.Blocks {
		blk.Index = i
	}
	return b.g
}

type branchTarget struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select targets
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	g       *Graph
	cur     *Block // nil after a terminator: the path ended
	targets []branchTarget
	labels  map[string]*Block
	gotos   []pendingGoto
	// fell is the block that ended in a fallthrough, consumed by the
	// enclosing switch when it starts the next case clause.
	fell *Block
	// label pending for the next breakable statement (set by LabeledStmt).
	curLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// start ensures there is a current block, creating an unreachable one for
// dead code after a terminator.
func (b *cfgBuilder) start() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.start()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label of a labeled loop/switch/select.
func (b *cfgBuilder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The labeled statement starts its own block so gotos have a
		// landing point.
		target := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, target)
		}
		b.cur = target
		b.labels[s.Label.Name] = target
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.start()
		cond.Ctrl = s
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		head.Ctrl = s
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		b.edge(b.start(), head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		contTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			contTo = post
		}
		b.targets = append(b.targets, branchTarget{label: label, breakTo: after, continueTo: contTo})
		b.cur = body
		b.stmt(s.Body)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, contTo)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		head.Ctrl = s
		head.Nodes = append(head.Nodes, s.X)
		b.edge(b.start(), head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.targets = append(b.targets, branchTarget{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s, s.Body.List, label, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s, s.Body.List, label, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.start()
		head.Ctrl = s
		after := b.newBlock()
		b.targets = append(b.targets, branchTarget{label: label, breakTo: after})
		hasDefault := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				hasDefault = true
			}
			clause := b.newBlock()
			b.edge(head, clause)
			if cc.Comm != nil {
				clause.Nodes = append(clause.Nodes, cc.Comm)
			}
			b.cur = clause
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		if len(s.Body.List) == 0 || hasDefault {
			// An empty select blocks forever; a default makes the head
			// itself able to continue only through a clause — both cases
			// keep flow inside the clauses, so nothing extra to do. (The
			// empty select leaves after unreachable, matching semantics.)
			_ = hasDefault
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		from := b.cur
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				b.edge(from, t.breakTo)
			}
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				b.edge(from, t.continueTo)
			}
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: from, label: s.Label.Name})
			}
		case token.FALLTHROUGH:
			b.fell = from
		}
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if isPanicStmt(s) {
			// The path ends here; panic-free analyses never see an exit
			// edge from a panicking block.
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, ...
		b.add(s)
	}
}

// switchClauses builds the clause blocks of an (expression or type) switch.
func (b *cfgBuilder) switchClauses(sw ast.Stmt, clauses []ast.Stmt, label string, allowFall bool) {
	head := b.start()
	head.Ctrl = sw
	after := b.newBlock()
	b.targets = append(b.targets, branchTarget{label: label, breakTo: after})
	hasDefault := false
	var prevFell *Block
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clause := b.newBlock()
		b.edge(head, clause)
		if prevFell != nil {
			b.edge(prevFell, clause)
			prevFell = nil
		}
		for _, e := range cc.List {
			clause.Nodes = append(clause.Nodes, e)
		}
		b.cur = clause
		b.stmtList(cc.Body)
		if allowFall && b.fell != nil {
			prevFell = b.fell
			b.fell = nil
		}
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// findTarget resolves a break/continue to its enclosing target.
func (b *cfgBuilder) findTarget(label *ast.Ident, needContinue bool) *branchTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needContinue && t.continueTo == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// isPanicStmt reports whether the statement is a direct panic(...) call.
func isPanicStmt(s *ast.ExprStmt) bool {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// prune removes empty construction-artifact blocks: no nodes, no control
// role, and no predecessors (dead blocks that still carry statements are
// kept — they are real unreachable code). Removing one block can orphan
// another, so iterate to fixpoint.
func (b *cfgBuilder) prune() {
	for {
		removed := false
		kept := b.g.Blocks[:0]
		for _, blk := range b.g.Blocks {
			if blk != b.g.Entry && blk != b.g.Exit &&
				len(blk.Preds) == 0 && len(blk.Nodes) == 0 && blk.Ctrl == nil {
				for _, s := range blk.Succs {
					s.Preds = removeBlock(s.Preds, blk)
				}
				removed = true
				continue
			}
			kept = append(kept, blk)
		}
		b.g.Blocks = kept
		if !removed {
			return
		}
	}
}

func removeBlock(list []*Block, b *Block) []*Block {
	out := list[:0]
	for _, x := range list {
		if x != b {
			out = append(out, x)
		}
	}
	return out
}
