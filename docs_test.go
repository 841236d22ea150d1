package casc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"casc/internal/analysis"
)

// metricLit matches a casc_* metric-name string literal as it appears in a
// named constant declaration. Matching the quoted literal (rather than
// bare words) keeps prose and label values out of the inventory.
var metricLit = regexp.MustCompile(`"(casc_[a-z0-9_]+)"`)

// docMetricRow matches a metric catalogue row of docs/OPERATIONS.md: a
// table row whose first cell is a backticked casc_* name.
var docMetricRow = regexp.MustCompile("(?m)^\\| `(casc_[a-z0-9_]+)` \\|")

// TestMetricsDocumented is the docs CI gate, checked both ways: every
// casc_* metric name registered anywhere in the source tree must be
// documented in docs/OPERATIONS.md, and every catalogue row must name a
// metric some source still declares, so the operator runbook can neither
// fall behind the code nor keep advertising a removed series. New metric?
// Add a row to the catalogue table; removed one? Delete its row.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading the operator runbook: %v", err)
	}
	runbook := string(doc)

	registered := map[string][]string{} // metric -> files declaring it
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and lint fixtures (fixture packages
			// declare deliberately bad metric names).
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricLit.FindAllStringSubmatch(string(src), -1) {
			registered[m[1]] = append(registered[m[1]], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(registered) == 0 {
		t.Fatal("no casc_* metric literals found; the scan is broken")
	}

	names := make([]string, 0, len(registered))
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(runbook, name) {
			t.Errorf("metric %s (declared in %s) is missing from docs/OPERATIONS.md",
				name, strings.Join(registered[name], ", "))
		}
	}
	rows := docMetricRow.FindAllStringSubmatch(runbook, -1)
	if len(rows) == 0 {
		t.Fatal("no metric catalogue rows found in docs/OPERATIONS.md; the scan is broken")
	}
	for _, m := range rows {
		if registered[m[1]] == nil {
			t.Errorf("docs/OPERATIONS.md catalogues %s but no source declares it", m[1])
		}
	}
}

// flagMethods are the flag/FlagSet registration methods whose first
// argument is the flag name. The *Var forms take the name second.
var flagMethods = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"String": 0, "Float64": 0, "Duration": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1,
}

// flagName matches a registered-looking flag name: the guard that keeps
// unrelated string-literal call arguments out of the inventory.
var flagName = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// docFlagTok matches a backticked `-flag ...` token in a runbook table
// row (trailing operand text like `-data f` is allowed and dropped).
var docFlagTok = regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`")

// registeredFlags parses every non-test .go file of one cmd/<name>
// directory and collects the flag names registered on the standard flag
// package or on any FlagSet (subcommands included).
func registeredFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	flags := map[string]bool{}
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			argIdx, ok := flagMethods[sel.Sel.Name]
			if !ok || len(call.Args) <= argIdx {
				return true
			}
			lit, ok := call.Args[argIdx].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name := strings.Trim(lit.Value, `"`)
			if flagName.MatchString(name) {
				flags[name] = true
			}
			return true
		})
	}
	return flags
}

// commandSection cuts the `### casc-<cmd>` section out of the runbook:
// from its heading to the next ### or ## heading.
func commandSection(runbook, cmd string) (string, error) {
	marker := "### " + cmd
	i := strings.Index(runbook, marker)
	if i < 0 {
		return "", fmt.Errorf("no %q section", marker)
	}
	rest := runbook[i+len(marker):]
	end := len(rest)
	for _, next := range []string{"\n### ", "\n## "} {
		if j := strings.Index(rest, next); j >= 0 && j < end {
			end = j
		}
	}
	return rest[:end], nil
}

// TestFlagsDocumented is the second docs CI gate, the flag-catalogue
// twin of TestMetricsDocumented: every flag registered by a cmd/ binary
// (FlagSet subcommands included) must have a backticked `-flag` row in
// that binary's section of docs/OPERATIONS.md, and every flag token
// documented in those tables must still exist in the code — so the
// runbook can neither fall behind a new flag nor keep advertising a
// removed one.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading the operator runbook: %v", err)
	}
	runbook := string(doc)

	cmds, err := filepath.Glob(filepath.Join("cmd", "casc-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no cmd/casc-* directories found; the scan is broken")
	}
	for _, dir := range cmds {
		cmd := filepath.Base(dir)
		flags := registeredFlags(t, dir)
		if len(flags) == 0 {
			t.Errorf("%s: no flag registrations found; the scan is broken", cmd)
			continue
		}
		section, err := commandSection(runbook, cmd)
		if err != nil {
			t.Errorf("%s: %v", cmd, err)
			continue
		}
		// Documented inventory: `-flag` tokens in the section's table
		// rows. Prose mentions outside table rows don't count as
		// documentation, so a row can't be replaced by a passing
		// reference.
		documented := map[string]bool{}
		for _, line := range strings.Split(section, "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), "|") {
				continue
			}
			for _, m := range docFlagTok.FindAllStringSubmatch(line, -1) {
				documented[m[1]] = true
			}
		}
		names := make([]string, 0, len(flags))
		for name := range flags {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !documented[name] {
				t.Errorf("%s: flag -%s is missing from its docs/OPERATIONS.md table", cmd, name)
			}
		}
		stale := make([]string, 0, len(documented))
		for name := range documented {
			stale = append(stale, name)
		}
		sort.Strings(stale)
		for _, name := range stale {
			if !flags[name] {
				t.Errorf("%s: docs/OPERATIONS.md documents -%s but the binary does not register it", cmd, name)
			}
		}
	}
}

// docRulesRow captures the rule list of the casc-lint `-rules` row of
// docs/OPERATIONS.md; readmeRuleRow captures one rule of README.md's rule
// table.
var (
	docRulesRow   = regexp.MustCompile("(?m)^\\| `-rules a,b` \\|[^|]*\\| rule subset \\(`([a-z,]+)`\\)")
	readmeRuleRow = regexp.MustCompile("^\\| `([a-z]+)` \\|")
)

// TestLintRulesDocumented keeps the two rule lists of the docs in step
// with the suite: the `-rules` row of docs/OPERATIONS.md and the rule
// table of README.md must name exactly the rules of analysis.AllRules, in
// its order.
func TestLintRulesDocumented(t *testing.T) {
	var want []string
	for _, r := range analysis.AllRules() {
		want = append(want, r.Name)
	}
	wantList := strings.Join(want, ",")

	ops, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := docRulesRow.FindSubmatch(ops)
	if m == nil {
		t.Fatal("docs/OPERATIONS.md: no `-rules` row listing the rule subset")
	}
	if got := string(m[1]); got != wantList {
		t.Errorf("docs/OPERATIONS.md -rules row lists %s, want %s", got, wantList)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| rule | invariant |")
	if !ok {
		t.Fatal("README.md: no rule table")
	}
	var got []string
	for _, line := range strings.Split(table, "\n")[2:] {
		row := readmeRuleRow.FindStringSubmatch(line)
		if row == nil {
			break
		}
		got = append(got, row[1])
	}
	if strings.Join(got, ",") != wantList {
		t.Errorf("README.md rule table lists %s, want %s", strings.Join(got, ","), wantList)
	}
}
