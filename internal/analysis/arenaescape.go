package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// newArenaEscape builds the arenaescape rule, the static half of the PR 8
// arena contract (DESIGN.md §12): memory drawn from a solver scratch Arena
// is valid only until the next solve on that arena, so no arena-derived
// value may outlive its solve. The rule runs a forward taint analysis over
// each function's CFG — sources are Arena field reads and Arena method
// results (and, in functions that wire an arena via SetArena, the results
// of the Solve/SolveWarm contract, which arena.go documents
// as arena-owned) — and flags the four escape routes:
//
//   - returned from an exported function (the Solve* solver entry points
//     are exempt: their arena-owned result is the documented contract);
//   - stored into heap state that outlives the frame (fields reached
//     through parameters, receivers, captured variables, or globals —
//     stores back into the arena itself are arena-owned and fine);
//   - sent on a channel;
//   - captured by a goroutine.
//
// Passing a value through an explicit Clone launders the taint. Facts
// propagate one level interprocedurally through per-function summaries:
// "returns arena memory", "returns its i-th parameter", and "stores its
// i-th parameter beyond its frame" (the last is reported at the call
// site). Calls through function values and cross-package callees are not
// summarized — the analysis is deliberately "may", never exhaustive.
func newArenaEscape() *Rule {
	return &Rule{
		Name: "arenaescape",
		Doc: "arena-owned memory must not outlive its solve: no exported " +
			"returns, heap stores, channel sends, or goroutine captures without Clone",
		// Where arenas live: the solver package that owns them and the
		// incremental engine that threads them across components.
		Scope: []string{"internal/assign", "internal/incremental"},
		Check: checkArenaEscape,
	}
}

// escSummary is one function's interprocedural facts.
type escSummary struct {
	returnsArena bool
	returnsParam []bool
	leaksParam   []bool
}

type arenaEscape struct {
	p     *Package
	sums  map[*types.Func]*escSummary
	decls []escDecl
	cfgs  map[*ast.BlockStmt]*Graph
}

type escDecl struct {
	fd *ast.FuncDecl
	fn *types.Func
}

func checkArenaEscape(p *Package, rep *Reporter) {
	ae := &arenaEscape{p: p, sums: map[*types.Func]*escSummary{}, cfgs: map[*ast.BlockStmt]*Graph{}}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ae.decls = append(ae.decls, escDecl{fd: fd, fn: fn})
			ae.sums[fn] = &escSummary{}
		}
	}
	// Summary fixpoint: helper-returns-helper chains settle in one round
	// per nesting level; three rounds cover everything the tree has.
	for round := 0; round < 3; round++ {
		changed := false
		for _, d := range ae.decls {
			if ae.summarize(d) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Violation pass: the function bodies, then every closure as its own
	// unit (a deferred or spawned closure runs with captured variables as
	// its heap).
	for _, d := range ae.decls {
		ae.analyze(d, rep)
	}
}

func (ae *arenaEscape) cfg(body *ast.BlockStmt) *Graph {
	g, ok := ae.cfgs[body]
	if !ok {
		g = BuildCFG(body)
		ae.cfgs[body] = g
	}
	return g
}

// summarize recomputes d's summary; reports whether it changed.
func (ae *arenaEscape) summarize(d escDecl) bool {
	sum := ae.sums[d.fn]
	changed := false

	// Mode A: arena-seeded.
	r := ae.newRun(d.fd, d.fd.Body, nil)
	r.solve()
	if r.returnsTaint && !sum.returnsArena {
		sum.returnsArena = true
		changed = true
	}

	// Mode B: one run per reference-like parameter.
	sig := d.fn.Type().(*types.Signature)
	n := sig.Params().Len()
	if sum.returnsParam == nil {
		sum.returnsParam = make([]bool, n)
		sum.leaksParam = make([]bool, n)
	}
	params := paramObjects(ae.p, d.fd)
	for i := 0; i < n && i < len(params); i++ {
		if params[i] == nil || !taintableType(sig.Params().At(i).Type()) {
			continue
		}
		if sum.returnsParam[i] && sum.leaksParam[i] {
			continue // already at top
		}
		pr := ae.newRun(d.fd, d.fd.Body, params[i])
		pr.solve()
		if pr.returnsTaint && !sum.returnsParam[i] {
			sum.returnsParam[i] = true
			changed = true
		}
		if pr.leaks && !sum.leaksParam[i] {
			sum.leaksParam[i] = true
			changed = true
		}
	}
	return changed
}

// analyze runs the reporting pass over d's body and each of its closures.
func (ae *arenaEscape) analyze(d escDecl, rep *Reporter) {
	r := ae.newRun(d.fd, d.fd.Body, nil)
	r.viol = map[token.Pos]string{}
	r.solve()
	reportViolations(ae.p, rep, r.viol)

	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		cr := ae.newRun(d.fd, fl.Body, nil)
		cr.viol = map[token.Pos]string{}
		cr.solve()
		reportViolations(ae.p, rep, cr.viol)
		return true // nested literals are separate units too
	})
}

func reportViolations(p *Package, rep *Reporter, viol map[token.Pos]string) {
	positions := make([]token.Pos, 0, len(viol))
	for pos := range viol {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	for _, pos := range positions {
		rep.ReportPos(pos, "%s", viol[pos])
	}
}

// escRun is one taint analysis over one body (function or closure).
type escRun struct {
	ae        *arenaEscape
	fd        *ast.FuncDecl  // enclosing declaration
	body      *ast.BlockStmt // analyzed body (fd.Body, or a closure's)
	seedParam types.Object   // mode B: taint starts at this parameter
	// solveTaints: results of Solve/SolveWarm are tainted —
	// set when the enclosing declaration wires an arena via SetArena.
	solveTaints bool

	returnsTaint bool
	leaks        bool
	viol         map[token.Pos]string // nil in summary mode
	seen         map[token.Pos]bool
}

func (ae *arenaEscape) newRun(fd *ast.FuncDecl, body *ast.BlockStmt, seed types.Object) *escRun {
	return &escRun{
		ae:          ae,
		fd:          fd,
		body:        body,
		seedParam:   seed,
		solveTaints: seed == nil && mentionsSetArena(fd),
		seen:        map[token.Pos]bool{},
	}
}

type taintSet map[types.Object]bool

// setTaint keeps the set sparse: only tainted objects are present, so
// clone/join/equal can treat presence as truth.
func setTaint(st taintSet, obj types.Object, tainted bool) {
	if tainted {
		st[obj] = true
	} else {
		delete(st, obj)
	}
}

func (r *escRun) solve() {
	g := r.ae.cfg(r.body)
	SolveForward(g, FlowProblem[taintSet]{
		Boundary: func() taintSet {
			st := taintSet{}
			if r.seedParam != nil {
				st[r.seedParam] = true
			}
			return st
		},
		Transfer: r.transfer,
		Join: func(a, b taintSet) taintSet {
			out := make(taintSet, len(a)+len(b))
			for k := range a {
				out[k] = true
			}
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b taintSet) bool {
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
	})
}

func (r *escRun) transfer(b *Block, in taintSet) taintSet {
	st := make(taintSet, len(in))
	for k := range in {
		st[k] = true
	}
	if rs, ok := b.Ctrl.(*ast.RangeStmt); ok && r.tainted(rs.X, st) {
		if obj := identObj(r.ae.p, rs.Value); obj != nil && taintableType(obj.Type()) {
			st[obj] = true
		}
	}
	for _, n := range b.Nodes {
		r.node(n, st)
	}
	return st
}

func (r *escRun) node(n ast.Node, st taintSet) {
	r.scanCalls(n, st)
	switch n := n.(type) {
	case *ast.AssignStmt:
		r.assign(n, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						obj := r.ae.p.Info.Defs[name]
						if obj != nil && taintableType(obj.Type()) {
							setTaint(st, obj, r.tainted(vs.Values[i], st))
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if !r.tainted(res, st) {
				continue
			}
			r.returnsTaint = true
			if r.viol != nil && r.body == r.fd.Body && exportedNonSolve(r.ae.p, r.fd) {
				r.violate(n.Pos(), "arena-owned memory returned from exported %s outlives its solve; Clone it first (Solve* results are arena-owned by contract)", r.fd.Name.Name)
			}
		}
	case *ast.SendStmt:
		if r.tainted(n.Value, st) {
			r.leaks = true
			r.violate(n.Pos(), "arena-owned memory sent on a channel escapes its solve; Clone it first")
		}
	case *ast.GoStmt:
		r.goStmt(n, st)
	}
}

// goStmt flags arena memory crossing into a goroutine: tainted call
// arguments, and tainted enclosing variables captured by the closure.
func (r *escRun) goStmt(n *ast.GoStmt, st taintSet) {
	for _, arg := range n.Call.Args {
		if r.tainted(arg, st) {
			r.leaks = true
			r.violate(n.Pos(), "arena-owned memory handed to a goroutine may outlive its solve; Clone it first")
			return
		}
	}
	if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		captured := false
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := r.ae.p.Info.Uses[id]; obj != nil && st[obj] {
					captured = true
				}
			}
			return !captured
		})
		if captured {
			r.leaks = true
			r.violate(n.Pos(), "arena-owned memory captured by a goroutine may outlive its solve; Clone it first")
		}
	}
}

// assign propagates taint through an assignment and flags heap stores.
func (r *escRun) assign(n *ast.AssignStmt, st taintSet) {
	// Taint of each RHS slot, before any LHS update (swap-safe).
	taints := make([]bool, len(n.Lhs))
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		t := r.tainted(n.Rhs[0], st)
		for i := range taints {
			taints[i] = t
		}
	} else {
		for i := range n.Lhs {
			if i < len(n.Rhs) {
				taints[i] = r.tainted(n.Rhs[i], st)
			}
		}
	}
	for i, lhs := range n.Lhs {
		t := taints[i] && taintableType(r.ae.p.Info.TypeOf(lhs))
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := identObj(r.ae.p, lhs)
			if obj == nil {
				continue // blank
			}
			if t && isPackageLevel(r.ae.p, obj) {
				r.leaks = true
				r.violate(n.Pos(), "arena-owned memory stored in package variable %s outlives its solve; Clone it first", lhs.Name)
				continue
			}
			// Locals and parameters are frame-local bindings.
			setTaint(st, obj, t)
		default:
			if !t {
				continue
			}
			root := rootIdentObj(r.ae.p, lhs)
			if root == nil {
				continue
			}
			switch {
			case st[root] || isArenaType(root.Type()):
				// Storing arena memory into the arena (or into a local
				// container already holding arena memory) stays arena-owned.
			case r.isHeapRoot(root):
				r.leaks = true
				r.violate(n.Pos(), "arena-owned memory stored through %s outlives its solve; Clone it first", root.Name())
			default:
				// A frame-local container now holds arena memory; returning
				// or storing it transfers the taint.
				st[root] = true
			}
		}
	}
}

// scanCalls checks every call under n (closures excluded) against the
// leaks-parameter summaries.
func (r *escRun) scanCalls(n ast.Node, st taintSet) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(r.ae.p, call)
		if callee == nil {
			return true
		}
		sum := r.ae.sums[callee]
		if sum == nil {
			return true
		}
		for i, arg := range call.Args {
			pi := paramIndex(callee, i)
			if pi < len(sum.leaksParam) && sum.leaksParam[pi] && r.tainted(arg, st) {
				r.leaks = true
				r.violate(call.Pos(), "arena-owned memory passed to %s, which stores it beyond its frame; Clone it first", callee.Name())
			}
		}
		return true
	})
}

// tainted reports whether e evaluates to arena-derived memory under st.
func (r *escRun) tainted(e ast.Expr, st taintSet) bool {
	if e == nil {
		return false
	}
	p := r.ae.p
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if obj == nil {
			obj = p.Info.Defs[e]
		}
		return obj != nil && st[obj]
	case *ast.SelectorExpr:
		if r.seedParam == nil && isArenaType(p.Info.TypeOf(e.X)) {
			return taintableType(p.Info.TypeOf(e))
		}
		return r.tainted(e.X, st) && taintableType(p.Info.TypeOf(e))
	case *ast.IndexExpr:
		return r.tainted(e.X, st) && taintableType(p.Info.TypeOf(e))
	case *ast.SliceExpr:
		return r.tainted(e.X, st)
	case *ast.StarExpr:
		return r.tainted(e.X, st)
	case *ast.UnaryExpr:
		return e.Op == token.AND && r.tainted(e.X, st)
	case *ast.TypeAssertExpr:
		return r.tainted(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if r.tainted(el, st) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return r.taintedCall(e, st)
	}
	return false
}

func (r *escRun) taintedCall(call *ast.CallExpr, st taintSet) bool {
	p := r.ae.p
	// Conversions propagate.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return r.tainted(call.Args[0], st)
	}
	// append: the only builtin that can carry references through.
	if isBuiltinCall(p, call, "append") && len(call.Args) > 0 {
		if r.tainted(call.Args[0], st) {
			return true
		}
		for _, arg := range call.Args[1:] {
			if !r.tainted(arg, st) {
				continue
			}
			t := p.Info.TypeOf(arg)
			if call.Ellipsis != token.NoPos {
				// append(dst, tainted...) copies the elements; only
				// reference-like elements keep pointing into the arena.
				if sl, ok := t.Underlying().(*types.Slice); ok {
					t = sl.Elem()
				}
			}
			if taintableType(t) {
				return true
			}
		}
		return false
	}
	callee := calleeFunc(p, call)
	if callee == nil {
		return false
	}
	name := callee.Name()
	if name == "Clone" {
		return false // the sanctioned escape hatch
	}
	// The solver contract: a Solve result is owned by the solver's arena.
	// That only outlives this frame when the frame wired a persistent
	// arena up (SetArena); a throwaway solver's result is safe to retain,
	// so the contract gate overrides the callee's summary here.
	if name == "Solve" || name == "SolveWarm" {
		return r.seedParam == nil && r.solveTaints
	}
	if r.seedParam == nil {
		// Arena method results are arena memory.
		if isArenaType(recvType(callee)) {
			return taintableType(p.Info.TypeOf(call))
		}
	}
	// One-level summaries for in-package callees.
	if sum := r.ae.sums[callee]; sum != nil {
		if r.seedParam == nil && sum.returnsArena {
			return true
		}
		for i, arg := range call.Args {
			pi := paramIndex(callee, i)
			if pi < len(sum.returnsParam) && sum.returnsParam[pi] && r.tainted(arg, st) {
				return true
			}
		}
	}
	// A method on a tainted receiver returning references conservatively
	// returns arena memory (cascGame and friends).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && recvType(callee) != nil {
		if r.tainted(sel.X, st) && taintableType(p.Info.TypeOf(call)) {
			return true
		}
	}
	return false
}

func (r *escRun) violate(pos token.Pos, format string, args ...any) {
	if r.viol == nil || r.seen[pos] {
		return
	}
	r.seen[pos] = true
	r.viol[pos] = fmt.Sprintf(format, args...)
}

// isHeapRoot reports whether stores through obj outlive the analyzed
// frame: parameters, receivers, globals, and (for closures) captures.
func (r *escRun) isHeapRoot(obj types.Object) bool {
	if isPackageLevel(r.ae.p, obj) {
		return true
	}
	// Declared outside the analyzed body: parameter, receiver, or a
	// variable captured from the enclosing function.
	return obj.Pos() < r.body.Pos() || obj.Pos() >= r.body.End()
}

// --- small shared helpers ---

// exportedNonSolve reports whether fd is an exported entry point outside
// the Solve contract family, with a non-Arena receiver.
func exportedNonSolve(p *Package, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() || strings.HasPrefix(fd.Name.Name, "Solve") {
		return false
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if isArenaType(p.Info.TypeOf(fd.Recv.List[0].Type)) {
			return false
		}
	}
	return true
}

// mentionsSetArena reports whether the declaration wires up an arena.
func mentionsSetArena(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "SetArena" {
			found = true
		}
		return !found
	})
	return found
}

// isArenaType reports whether t (pointers stripped) is a named type called
// Arena — the solver scratch arena (assign.Arena, or a fixture's local
// double).
func isArenaType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Arena"
}

// taintableType reports whether values of t can carry a reference into
// arena memory: slices, maps, pointers, channels, interfaces (except
// error), and aggregates containing them. Scalars copy by value and drop
// taint.
func taintableType(t types.Type) bool {
	return taintableRec(t, make(map[types.Type]bool))
}

func taintableRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return false
	}
	if t.String() == "error" {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	case *types.Interface:
		return true // any interface may box a reference
	case *types.Array:
		return taintableRec(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if taintableRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// isPackageLevel reports whether obj is a package-scope variable.
func isPackageLevel(p *Package, obj types.Object) bool {
	return obj.Parent() == p.Pkg.Scope()
}

// rootIdentObj walks an lvalue chain (selectors, indexes, derefs) to its
// root identifier's object, or nil.
func rootIdentObj(p *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return identObj(p, x)
		default:
			return nil
		}
	}
}

// paramObjects returns the declared parameter objects of fd in signature
// order (grouped fields expanded), nil entries for unnamed parameters.
func paramObjects(p *Package, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			objs = append(objs, nil)
			continue
		}
		for _, name := range field.Names {
			objs = append(objs, p.Info.Defs[name])
		}
	}
	return objs
}

// paramIndex maps argument position i to the callee's parameter index,
// folding variadic tails onto the last parameter.
func paramIndex(fn *types.Func, i int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return i
	}
	if n := sig.Params().Len(); sig.Variadic() && i >= n-1 {
		return n - 1
	}
	return i
}
