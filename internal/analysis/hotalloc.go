package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// newHotAlloc builds the hotalloc rule: no per-iteration heap allocation in
// the loops of solver Solve paths. The zero-allocation steady state of the
// arena refactor (DESIGN.md §12) is asserted dynamically by
// testing.AllocsPerRun regression tests; this rule is the static half — it
// catches the allocating idioms at review time, in every solver, including
// the ones no alloc test pins. Flagged inside any loop body of a
// Solve/SolveWarm/solve/solveWarm function or method:
//
//   - make(...) — grow an arena buffer outside the loop instead;
//   - append(nil, ...) / append(T(nil), ...) — the copy-into-fresh-slice
//     idiom (the old sameSet sort copies);
//   - map or chan composite literals — index marks in arena scratch
//     replace per-iteration membership maps (TPG's bestBSubset marks its
//     chosen workers in its candidate buffer).
//
// A justified //casclint:ignore hotalloc <reason> suppresses a finding
// where an allocation is genuinely once-per-solve or off the steady-state
// path.
func newHotAlloc() *Rule {
	return &Rule{
		Name: "hotalloc",
		Doc: "no make/append-from-nil/map literals inside Solve loop " +
			"bodies; draw from the solver arena or hoist out of the loop",
		// Same blast radius as ctxloop minus resilience (its decorators'
		// Solve bodies are error-path plumbing, not per-candidate loops):
		// the batch solvers, the cluster tier's routing Solve paths, and
		// the incremental engine's per-round solves.
		Scope: []string{"internal/assign", "internal/shard", "internal/incremental"},
		Check: checkHotAlloc,
	}
}

// solveFuncName reports whether name is a solver entry point the rule
// covers: the exported Solve/SolveWarm contract methods and their
// unexported twins that hold the actual hot loops (TPG.solve, GT.solve).
func solveFuncName(name string) bool {
	switch name {
	case "Solve", "SolveWarm", "solve", "solveWarm":
		return true
	}
	return false
}

func checkHotAlloc(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !solveFuncName(fd.Name.Name) {
				continue
			}
			checkHotAllocFunc(p, rep, fd)
		}
	}
}

func checkHotAllocFunc(p *Package, rep *Reporter, fd *ast.FuncDecl) {
	// Collect the loop bodies first; an allocation is hot when its
	// position falls inside any of them (nested function literals
	// included — a closure allocating per iteration is still per
	// iteration).
	var loops []*ast.BlockStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, l.Body)
		case *ast.RangeStmt:
			loops = append(loops, l.Body)
		}
		return true
	})
	if len(loops) == 0 {
		return
	}
	inLoop := func(pos token.Pos) bool {
		for _, b := range loops {
			if b.Pos() <= pos && pos < b.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if !inLoop(e.Pos()) {
				return true
			}
			if isBuiltinCall(p, e, "make") {
				rep.Report(e, "make inside a Solve loop allocates per iteration; grow an arena buffer outside the loop")
			}
			if isBuiltinCall(p, e, "append") && len(e.Args) > 0 && isNilSeed(p, e.Args[0]) {
				rep.Report(e, "append to nil inside a Solve loop allocates a fresh slice per iteration; reuse a buffer")
			}
		case *ast.CompositeLit:
			if !inLoop(e.Pos()) {
				return true
			}
			if t := p.Info.TypeOf(e); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					rep.Report(e, "map literal inside a Solve loop allocates per iteration; use epoch-stamped index marks instead")
				}
			}
		}
		return true
	})
}

// isNilSeed reports whether the expression is nil or a conversion of nil
// (the `[]int(nil)` spelling of the copy idiom).
func isNilSeed(p *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := p.Info.Types[e]; ok && tv.IsNil() {
		return true
	}
	if c, ok := e.(*ast.CallExpr); ok && len(c.Args) == 1 {
		if tv, ok := p.Info.Types[c.Fun]; ok && tv.IsType() {
			return isNilSeed(p, c.Args[0])
		}
	}
	return false
}
