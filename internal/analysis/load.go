package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: its syntax trees plus the
// type information every rule needs.
type Package struct {
	// Path is the import path ("casc/internal/assign"). Packages loaded
	// from a bare directory (testdata fixtures) get a synthesized path
	// rooted at the module path.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module without depending
// on golang.org/x/tools: the go command provides package and file
// discovery plus compiled export data (`go list -export`), module sources
// are parsed with go/parser, and go/types checks them against the export
// data of their dependencies.
type Loader struct {
	Root string // module root: the directory containing go.mod

	fset    *token.FileSet
	modPath string
	exports map[string]string // import path -> export data file
	gc      types.Importer    // reads export data through lookup
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// NewLoader prepares a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	l := &Loader{
		Root:    root,
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
	}
	mod, err := l.goList("-m", "-f", "{{.Path}}")
	if err != nil {
		return nil, err
	}
	if len(mod) != 1 {
		return nil, fmt.Errorf("analysis: cannot determine module path under %s", root)
	}
	l.modPath = mod[0]
	// One export-data sweep over the whole module and its (stdlib)
	// dependency closure; anything a fixture imports beyond that is
	// resolved on demand in lookup.
	lines, err := l.goList("-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	if err != nil {
		return nil, err
	}
	l.addExports(lines)
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l, nil
}

func (l *Loader) goList(args ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Root
	out, err := cmd.Output()
	if err != nil {
		detail := ""
		if ee, ok := err.(*exec.ExitError); ok {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("analysis: go list %s failed%s", strings.Join(args, " "), detail)
	}
	var lines []string
	for _, ln := range strings.Split(string(out), "\n") {
		if ln = strings.TrimRight(ln, "\r"); ln != "" {
			lines = append(lines, ln)
		}
	}
	return lines, nil
}

func (l *Loader) addExports(lines []string) {
	for _, ln := range lines {
		path, file, ok := strings.Cut(ln, "\t")
		if ok && file != "" {
			l.exports[path] = file
		}
	}
}

// lookup feeds export data to the gc importer, fetching entries missing
// from the initial sweep (stdlib packages only fixtures import) lazily.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		lines, err := l.goList("-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", path)
		if err != nil {
			return nil, err
		}
		l.addExports(lines)
		if file, ok = l.exports[path]; !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(file)
}

// Import implements types.Importer over export data, making the Loader
// usable as the checker's importer for both stdlib and module imports.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return l.gc.Import(path)
}

// LoadModule loads every package of the module (`go list ./...`),
// type-checked from source. Test files are excluded: the suite's rules
// target production code, and fixtures under testdata are loaded
// by the golden tests.
func (l *Loader) LoadModule() ([]*Package, error) {
	lines, err := l.goList("-f", "{{.ImportPath}}\t{{.Dir}}\t{{range .GoFiles}}{{.}} {{end}}", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, ln := range lines {
		parts := strings.SplitN(ln, "\t", 3)
		if len(parts) != 3 {
			continue
		}
		path, dir := parts[0], parts[1]
		var files []string
		for _, f := range strings.Fields(parts[2]) {
			files = append(files, filepath.Join(dir, f))
		}
		if len(files) == 0 {
			continue
		}
		p, err := l.check(path, dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadNestedModules loads every module nested below the loader's root (a
// directory with its own go.mod, such as perfbench), each through its own
// Loader. `go list ./...` stops at module boundaries, so LoadModule never
// sees them; whole-program rules read them as Options.Context.
func (l *Loader) LoadNestedModules() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == l.Root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err != nil {
			return nil
		}
		nested, err := NewLoader(path)
		if err != nil {
			return err
		}
		mod, err := nested.LoadModule()
		if err != nil {
			return err
		}
		pkgs = append(pkgs, mod...)
		return filepath.SkipDir
	})
	return pkgs, err
}

func (l *Loader) check(path, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: asts, Pkg: tpkg, Info: info}, nil
}
