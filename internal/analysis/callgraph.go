package analysis

import (
	"go/ast"
	"go/types"
)

// callgraph.go builds the static call graph the interprocedural rules
// (ctxprop, arenaescape's summary pass) consume. Edges are static calls
// resolved through go/types: direct function calls, method calls on
// concrete receivers, and interface method calls (which resolve to the
// interface's *types.Func — a node with no body, so summaries treat it by
// contract, not by inspection). Calls through function-typed values are
// invisible, which keeps every derived fact "may" rather than "must".

// FuncInfo is one function of the graph with the summary facts the rules
// propagate one level interprocedurally.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil for bodyless nodes (interface methods, externals)
	Pkg  *Package
	// Calls lists the static call sites inside Decl's body, closures
	// included (a call made by a closure still runs on behalf of the
	// enclosing function for reachability purposes).
	Calls []CallSite
	// HasLoop reports a for/range anywhere in the body (closures included).
	HasLoop bool
	// Ctx is the function's context.Context parameter object, if any.
	Ctx types.Object
}

// CallSite is one resolved call.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func
}

// CallGraph accumulates FuncInfo across packages; rules feed it one
// package per Check call and query it in Finish. Nodes are keyed by
// package path and name (dcKey), not by *types.Func: each package is
// type-checked on its own against its imports' export data, so a callee
// in another package is a different object from the one its own
// package's check defined.
type CallGraph struct {
	nodes map[string]*FuncInfo
}

// NewCallGraph returns an empty graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{nodes: map[string]*FuncInfo{}}
}

// node returns fn's FuncInfo, or nil if no loaded package declares it.
func (cg *CallGraph) node(fn *types.Func) *FuncInfo {
	if key := dcKey(fn); key != "" {
		return cg.nodes[key]
	}
	return nil
}

// AddPackage indexes every function declaration of p.
func (cg *CallGraph) AddPackage(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			key := dcKey(obj)
			if key == "" {
				continue
			}
			fi := &FuncInfo{Fn: obj, Decl: fd, Pkg: p, Ctx: contextParam(p, fd)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					fi.HasLoop = true
				case *ast.CallExpr:
					if callee := calleeFunc(p, n); callee != nil {
						fi.Calls = append(fi.Calls, CallSite{Call: n, Callee: callee})
					}
				}
				return true
			})
			cg.nodes[key] = fi
		}
	}
}

// LoopsWithin reports whether fn loops itself or any of its direct callees
// does — the one-level summary ctxprop uses to decide that handing a
// callee a dead context matters. Interface methods named Solve/SolveWarm
// count as looping by contract (every Solver implementation's hot path
// loops; that contract is what ctxloop enforces on the concrete types).
func (cg *CallGraph) LoopsWithin(fn *types.Func) bool {
	if isSolveContract(fn) {
		return true
	}
	fi := cg.node(fn)
	if fi == nil {
		return false
	}
	if fi.HasLoop {
		return true
	}
	for _, cs := range fi.Calls {
		if isSolveContract(cs.Callee) {
			return true
		}
		if next := cg.node(cs.Callee); next != nil && next.HasLoop {
			return true
		}
	}
	return false
}

// isSolveContract reports whether fn is a Solve/SolveWarm method — the
// solver contract whose implementations loop by design.
func isSolveContract(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	name := fn.Name()
	if name != "Solve" && name != "SolveWarm" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}
