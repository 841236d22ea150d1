package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// newDeadCode builds the deadcode rule: an exported declaration under
// internal/ that no non-test root reaches is code only its own tests keep
// alive, and should be deleted rather than maintained.
//
// Reachability runs over a reference graph, not the static call graph:
// every package-level object a declaration's syntax names is an edge, so
// function values, types, variables and constants count as uses. Nodes
// are keyed by package path and name rather than by *types.Object,
// because the loader type-checks each package against its dependencies'
// export data and one declaration therefore has a different object in
// every package that imports it.
//
// Roots are every declaration of a library package outside internal/ (the
// root package's public API) and the main and init functions of every
// package, which covers cmd/, examples/ and the nested modules passed as
// Options.Context (perfbench). A type the public API hands to callers
// (through an alias, a signature or an exported field) is public too, and
// so are its exported methods. A method is also reached when its receiver
// type is reached and satisfies an interface that reached code uses —
// sort.Interface, heap.Interface, Solver — or one of the interfaces fmt
// and encoding/json consult by reflection. Reached from a dead
// declaration only is dead too, so whole chains are reported.
//
// A declaration kept on purpose (a reference oracle tests compare
// against, a paper ablation) carries //casclint:ignore deadcode <reason>.
// Its finding is still emitted for the suppression to absorb, but it
// roots what it references, so its helpers are not reported again.
func newDeadCode() *Rule {
	g := &refGraph{
		decls:    map[string]*dcDecl{},
		methodOf: map[string][]*dcDecl{},
		ifaceIDs: map[types.Type]string{},
		ifaces:   map[string][]string{},
	}
	return &Rule{
		Name: "deadcode",
		Doc: "exported internal/ declarations must be reachable from non-test " +
			"code outside internal/ (casc, cmd/, examples/, perfbench)",
		ReadsContext: true,
		Check:        func(p *Package, _ *Reporter) { g.addPackage(p) },
		Finish:       g.finish,
	}
}

// dcDecl is one package-level declaration of the reference graph.
type dcDecl struct {
	key    string
	name   *ast.Ident
	pkg    *Package
	refs   []string // keys of the package-level objects it names
	ifaces []string // ids of the interfaces its syntax uses
	recv   string   // methods: key of the receiver's named type
	root   bool
	kept   bool // carries a deadcode suppression
	report bool // exported and under internal/
	public bool // exported from a library package outside internal/
	// api lists the named types the declaration hands to its callers:
	// signature types, exported field types, an alias's target.
	api []string
	// methods maps each method signature of a named type's pointer
	// method set (promoted methods included) to the method's key.
	methods map[string]string
}

type refGraph struct {
	decls    map[string]*dcDecl
	order    []*dcDecl
	methodOf map[string][]*dcDecl // receiver type key -> its methods
	ifaceIDs map[types.Type]string
	ifaces   map[string][]string // interface id -> method signatures
}

// reflectIfaces are the interfaces the standard library consults by
// reflection on values passed as any: no reached code names them.
var reflectIfaces = [][]string{
	{"Error()(string)"},
	{"String()(string)"},
	{"GoString()(string)"},
	{"Format(fmt.State,int32)()"},
	{"MarshalJSON()([]uint8,error)"},
	{"UnmarshalJSON([]uint8)(error)"},
	{"MarshalText()([]uint8,error)"},
	{"UnmarshalText([]uint8)(error)"},
}

// dcKey names a package-level object (or method) independently of which
// package's type-check produced it; "" for locals, fields and builtins.
func dcKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			if r := namedRecv(fn); r != "" {
				return r + "." + fn.Name()
			}
			return ""
		}
		obj = fn
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// aliasRE matches the predeclared aliases, which print under whichever
// name the declaring source (or export data) used.
var aliasRE = regexp.MustCompile(`\b(any|byte|rune)\b`)

var aliasTargets = map[string]string{"any": "interface{}", "byte": "uint8", "rune": "int32"}

// methodSig renders a method's name and signature without parameter
// names or receiver, comparable across type-checks.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) string {
		var parts []string
		for i := 0; i < t.Len(); i++ {
			ts := types.TypeString(t.At(i).Type(), qual)
			parts = append(parts, aliasRE.ReplaceAllStringFunc(ts, func(a string) string { return aliasTargets[a] }))
		}
		return strings.Join(parts, ",")
	}
	return fn.Name() + "(" + tuple(sig.Params()) + ")(" + tuple(sig.Results()) + ")"
}

func (g *refGraph) addPackage(p *Package) {
	internal := slices.Contains(strings.Split(p.Path, "/"), "internal")
	library := !internal && p.Pkg.Name() != "main"
	for _, f := range p.Files {
		kept := deadcodeSuppressed(p, f)
		add := func(obj types.Object, name *ast.Ident, syntax ast.Node) *dcDecl {
			key := dcKey(obj)
			if key == "" {
				return nil
			}
			line := p.Fset.Position(name.Pos()).Line
			d := &dcDecl{
				key:    key,
				name:   name,
				pkg:    p,
				root:   library,
				kept:   kept[line],
				report: internal && name.IsExported(),
				public: library && name.IsExported(),
			}
			if name.IsExported() {
				d.api = apiTypes(obj)
			}
			g.collect(p, d, syntax)
			g.decls[key] = d
			g.order = append(g.order, d)
			return d
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d := add(p.Info.Defs[decl.Name], decl.Name, decl)
				if d == nil {
					continue
				}
				if decl.Recv == nil {
					d.root = d.root || decl.Name.Name == "init" || decl.Name.Name == "main"
				} else if fn, ok := p.Info.Defs[decl.Name].(*types.Func); ok {
					d.recv = namedRecv(fn)
					g.methodOf[d.recv] = append(g.methodOf[d.recv], d)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := p.Info.Defs[spec.Name]
						if d := add(obj, spec.Name, spec); d != nil {
							d.methods = pointerMethods(obj)
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(p.Info.Defs[name], name, spec)
						}
					}
				}
			}
		}
	}
}

// apiTypes lists the keys of the named types a declaration exposes to
// its callers: the types of a function's parameters and results, of a
// variable or constant, of a struct's exported fields, of an interface's
// method signatures, or an alias's target.
func apiTypes(obj types.Object) []string {
	var keys []string
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if key := dcKey(t.Obj()); key != "" {
				keys = append(keys, key)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	switch obj := obj.(type) {
	case *types.TypeName:
		if obj.IsAlias() {
			walk(obj.Type())
		} else {
			walk(obj.Type().Underlying())
		}
	case nil:
	default:
		walk(obj.Type())
	}
	return keys
}

// pointerMethods indexes the method set of *T (T's value methods, its
// pointer methods and every promoted method) by signature.
func pointerMethods(obj types.Object) map[string]string {
	tn, ok := obj.(*types.TypeName)
	if !ok || types.IsInterface(tn.Type()) {
		return nil
	}
	ms := types.NewMethodSet(types.NewPointer(tn.Type()))
	if ms.Len() == 0 {
		return nil
	}
	out := make(map[string]string, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok {
			out[methodSig(fn)] = dcKey(fn)
		}
	}
	return out
}

// collect records the package-level objects syntax names and the
// interfaces its expressions are typed with (including the interface
// parameters of every function it names, so sort.Sort(x) uses
// sort.Interface although x is concrete).
func (g *refGraph) collect(p *Package, d *dcDecl, syntax ast.Node) {
	seen := map[string]bool{}
	useIface := func(t types.Type) {
		if id := g.ifaceID(t); id != "" && !seen[id] {
			seen[id] = true
			d.ifaces = append(d.ifaces, id)
		}
	}
	ast.Inspect(syntax, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			if key := dcKey(p.Info.Uses[id]); key != "" && key != d.key && !seen[key] {
				seen[key] = true
				d.refs = append(d.refs, key)
			}
		}
		tv, ok := p.Info.Types[e]
		if !ok || tv.Type == nil {
			return true
		}
		useIface(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				t := sig.Params().At(i).Type()
				if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
					t = s.Elem()
				}
				useIface(t)
			}
		}
		return true
	})
}

// ifaceID returns a stable id for a non-empty interface type and records
// its method signatures; "" for every other type.
func (g *refGraph) ifaceID(t types.Type) string {
	if id, ok := g.ifaceIDs[t]; ok {
		return id
	}
	id := ""
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		var sigs []string
		for i := 0; i < it.NumMethods(); i++ {
			sigs = append(sigs, methodSig(it.Method(i)))
		}
		id = strings.Join(sigs, ";")
		g.ifaces[id] = sigs
	}
	g.ifaceIDs[t] = id
	return id
}

// deadcodeSuppressed returns the lines a //casclint:ignore comment naming
// deadcode covers in f: its own line and the next.
func deadcodeSuppressed(p *Package, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := suppressionRE.FindStringSubmatch(c.Text)
			if m == nil || strings.TrimSpace(m[2]) == "" {
				continue
			}
			for _, rule := range strings.Split(m[1], ",") {
				if rule == "deadcode" {
					line := p.Fset.Position(c.Pos()).Line
					lines[line], lines[line+1] = true, true
				}
			}
		}
	}
	return lines
}

// reach returns every declaration reachable from the roots (plus, with
// withKept, the suppressed declarations and the methods of suppressed
// types), closing over references and interface satisfaction.
func (g *refGraph) reach(withKept bool) map[*dcDecl]bool {
	live := map[*dcDecl]bool{}
	var stack []*dcDecl
	visit := func(key string) bool {
		d := g.decls[key]
		if d == nil || live[d] {
			return false
		}
		live[d] = true
		stack = append(stack, d)
		return true
	}
	for _, d := range g.order {
		if d.root || (withKept && d.kept) {
			visit(d.key)
		}
		if withKept && d.recv != "" && g.decls[d.recv] != nil && g.decls[d.recv].kept {
			visit(d.key)
		}
	}
	// A type the public API exposes roots its exported methods and, in
	// turn, the types those hand out.
	exposed := map[string]bool{}
	var expose func(keys []string)
	expose = func(keys []string) {
		for _, key := range keys {
			if exposed[key] {
				continue
			}
			exposed[key] = true
			visit(key)
			if d := g.decls[key]; d != nil {
				expose(d.api)
			}
			for _, m := range g.methodOf[key] {
				if m.name.IsExported() {
					visit(m.key)
					expose(m.api)
				}
			}
		}
	}
	for _, d := range g.order {
		if d.public {
			expose(d.api)
		}
	}
	used := map[string]bool{}
	usedSets := slices.Clone(reflectIfaces)
	use := func(id string) {
		if !used[id] {
			used[id] = true
			usedSets = append(usedSets, g.ifaces[id])
		}
	}
	for {
		for len(stack) > 0 {
			d := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ref := range d.refs {
				visit(ref)
			}
			for _, id := range d.ifaces {
				use(id)
			}
		}
		grew := false
		for _, d := range g.order {
			if !live[d] || d.methods == nil {
				continue
			}
			for _, sigs := range usedSets {
				if !satisfies(d.methods, sigs) {
					continue
				}
				for _, s := range sigs {
					if visit(d.methods[s]) {
						grew = true
					}
				}
			}
		}
		if !grew {
			return live
		}
	}
}

func satisfies(methods map[string]string, sigs []string) bool {
	for _, s := range sigs {
		if _, ok := methods[s]; !ok {
			return false
		}
	}
	return true
}

func (g *refGraph) finish(report func(pos token.Position, format string, args ...any)) {
	hasRoot := false
	for _, d := range g.order {
		hasRoot = hasRoot || d.root
	}
	if !hasRoot {
		// Without roots (a run over internal packages alone) everything
		// would look dead; there is nothing to decide.
		return
	}
	live, liveKept := g.reach(false), g.reach(true)
	finding := func(d *dcDecl) bool {
		if !d.report {
			return false
		}
		if d.kept {
			return !live[d]
		}
		return !liveKept[d]
	}
	for _, d := range g.order {
		if !finding(d) {
			continue
		}
		pos := d.pkg.Fset.Position(d.name.Pos())
		if d.recv == "" {
			report(pos, "%s is unreachable from non-test code outside internal/; delete it", d.name.Name)
			continue
		}
		if t := g.decls[d.recv]; t != nil && finding(t) {
			continue // folded into the receiver type's finding
		}
		report(pos, "method %s.%s is unreachable from non-test code outside internal/; delete it",
			d.recv[strings.LastIndex(d.recv, ".")+1:], d.name.Name)
	}
}
