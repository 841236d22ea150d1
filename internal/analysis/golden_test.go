package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader builds one Loader per test process: the export-data sweep
// behind it is the expensive part and is identical for every test.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		root, err := FindModuleRoot(wd)
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

// LoadDir loads the single package in dir (a fixture under testdata,
// invisible to the go command), type-checked against the module's export
// data. All non-test .go files in the directory are included.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			files = append(files, filepath.Join(dir, n))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	return l.check(l.modPath+"/"+filepath.ToSlash(rel), dir, files)
}

// wantRE matches golden expectations: `// want <rule>` trailing the line
// the diagnostic must land on.
var wantRE = regexp.MustCompile(`// want (\w+)\s*$`)

type want struct {
	rule string
	line int
}

// fixtureWants scans every .go file of dir for `// want` annotations.
func fixtureWants(t *testing.T, dir string) map[string][]want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]want)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants[path] = append(wants[path], want{rule: m[1], line: i + 1})
			}
		}
	}
	return wants
}

// lineOf returns the 1-based line whose trimmed content equals text.
func lineOf(t *testing.T, path, text string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == text {
			return i + 1
		}
	}
	t.Fatalf("%s: no line equal to %q", path, text)
	return 0
}

// TestGolden runs each rule against its fixture package and requires the
// produced diagnostics to match the `// want` annotations exactly — same
// rule, same line, nothing extra, nothing missing.
func TestGolden(t *testing.T) {
	l := testLoader(t)
	cases := []struct {
		fixture string
		rules   []string // rules to run; nil = all
		deps    []string // sub-packages loaded with the fixture
	}{
		{fixture: "maporder", rules: []string{"maporder"}},
		{fixture: "seededrand", rules: []string{"seededrand"}},
		{fixture: "ctxloop", rules: []string{"ctxloop"}},
		{fixture: "metricname", rules: []string{"metricname"}},
		{fixture: "droppederr", rules: []string{"droppederr"}},
		{fixture: "hotalloc", rules: []string{"hotalloc"}},
		{fixture: "suppress", rules: []string{"droppederr"}},
		// The shard fixture exercises the three rules whose scope covers
		// internal/shard, in one package shaped like the sharded tier.
		{fixture: "shard", rules: []string{"ctxloop", "seededrand", "metricname"}},
		// The incremental fixture exercises the three rules whose scope
		// covers internal/incremental, shaped like the persistent engine.
		{fixture: "incremental", rules: []string{"ctxloop", "seededrand", "maporder"}},
		// The scenario fixture exercises the two rules extended to cover
		// internal/scenario, shaped like the counterfactual tracer and
		// the arrival generator (DESIGN.md §14 determinism contract).
		{fixture: "scenario", rules: []string{"ctxloop", "seededrand"}},
		// The four CFG/dataflow rules (DESIGN.md §13).
		{fixture: "arenaescape", rules: []string{"arenaescape"}},
		{fixture: "lockbalance", rules: []string{"lockbalance"}},
		{fixture: "ctxprop", rules: []string{"ctxprop"}, deps: []string{"loops"}},
		{fixture: "floatdet", rules: []string{"floatdet"}},
		// Reachability from main over references and used interfaces
		// (DESIGN.md §9).
		{fixture: "deadcode", rules: []string{"deadcode"}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			pkg, err := l.LoadDir(dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			pkgs := []*Package{pkg}
			for _, d := range tc.deps {
				dep, err := l.LoadDir(filepath.Join(dir, d))
				if err != nil {
					t.Fatalf("loading fixture: %v", err)
				}
				pkgs = append(pkgs, dep)
			}
			var rules []*Rule
			for _, r := range AllRules() {
				for _, name := range tc.rules {
					if r.Name == name {
						rules = append(rules, r)
					}
				}
			}
			diags := Run(pkgs, Options{Rules: rules, IgnoreScope: true})

			wants := fixtureWants(t, dir)
			if tc.fixture == "suppress" {
				// Suppression-hygiene findings are reported under the
				// casclint pseudo-rule at the comment's own line; those
				// lines cannot carry a trailing `// want` without changing
				// the comment they test.
				path, err := filepath.Abs(filepath.Join(dir, "suppress.go"))
				if err != nil {
					t.Fatal(err)
				}
				for _, text := range []string{
					"//casclint:ignore droppederr",                                            // malformed: no reason
					"//casclint:ignore droppederr nothing below can fail",                     // unused
					"//casclint:ignore nosuchrule suppressing a rule the suite does not have", // unknown rule
				} {
					wants[path] = append(wants[path], want{
						rule: SuppressRule,
						line: lineOf(t, path, text),
					})
				}
			}

			type key struct {
				file string
				line int
				rule string
			}
			got := make(map[key]bool)
			for _, d := range diags {
				k := key{d.File, d.Line, d.Rule}
				if got[k] {
					t.Errorf("duplicate diagnostic %s", d)
				}
				got[k] = true
			}
			expected := make(map[key]bool)
			for file, ws := range wants {
				abs, err := filepath.Abs(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range ws {
					expected[key{abs, w.line, w.rule}] = true
				}
			}
			var missing, unexpected []string
			for k := range expected {
				if !got[k] {
					missing = append(missing, fmt.Sprintf("%s:%d: %s", k.file, k.line, k.rule))
				}
			}
			for k := range got {
				if !expected[k] {
					unexpected = append(unexpected, fmt.Sprintf("%s:%d: %s", k.file, k.line, k.rule))
				}
			}
			sort.Strings(missing)
			sort.Strings(unexpected)
			for _, m := range missing {
				t.Errorf("missing diagnostic: %s", m)
			}
			for _, u := range unexpected {
				t.Errorf("unexpected diagnostic: %s", u)
			}
			if t.Failed() {
				for _, d := range diags {
					t.Logf("got: %s", d)
				}
			}
		})
	}
}
