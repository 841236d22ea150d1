// Command casc-lint runs the CASC static-analysis suite (internal/analysis)
// over the module: stdlib-only analyzers enforcing the determinism,
// cancellation, memory-ownership and metrics invariants the solver stack
// depends on, and that every internal/ export is reached from non-test
// code (`casc-lint -list` prints the rules).
//
// Usage:
//
//	casc-lint [-json] [-root dir] [-rules r1,r2] [pattern ...]
//
// Patterns are ./... (the default, whole module) or package directories
// like ./internal/assign or ./internal/... — the module is always analyzed
// whole (cross-package checks need it) and patterns filter which packages'
// findings are reported. Exit status: 0 clean, 1 findings, 2 failure.
//
// Findings are suppressed inline with a justified comment on the flagged
// line or the line above:
//
//	//casclint:ignore <rule>[,<rule>] <reason>
//
// The reason is mandatory; a bare suppression is itself reported, as is a
// suppression whose rule never fires on the covered lines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"casc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("casc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	rootFlag := fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
	rulesFlag := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list the rules and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "casc-lint:", err)
		return 2
	}

	if *list {
		for _, r := range analysis.AllRules() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	root := *rootFlag
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return fail(err)
		}
		if root, err = analysis.FindModuleRoot(wd); err != nil {
			return fail(err)
		}
	}

	rules, err := selectRules(*rulesFlag)
	if err != nil {
		return fail(err)
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		return fail(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		return fail(err)
	}
	nested, err := loader.LoadNestedModules()
	if err != nil {
		return fail(err)
	}
	diags := analysis.Run(pkgs, analysis.Options{Rules: rules, Context: nested})
	diags = filterPatterns(root, diags, fs.Args())
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		if err := analysis.WriteJSON(stdout, diags); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "casc-lint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

func selectRules(spec string) ([]*analysis.Rule, error) {
	if spec == "" {
		return nil, nil // Run defaults to all
	}
	byName := make(map[string]*analysis.Rule)
	for _, r := range analysis.AllRules() {
		byName[r.Name] = r
	}
	var rules []*analysis.Rule
	for _, name := range strings.Split(spec, ",") {
		r, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q; the suite has:\n%s", name, ruleCatalog())
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// ruleCatalog renders every rule's name and one-line doc, one per line —
// the unknown-rule error shows what each candidate actually checks rather
// than a bare name list.
func ruleCatalog() string {
	var b strings.Builder
	for _, r := range analysis.AllRules() {
		fmt.Fprintf(&b, "  %-12s %s\n", r.Name, r.Doc)
	}
	return strings.TrimRight(b.String(), "\n")
}

// filterPatterns keeps diagnostics under the requested package patterns.
// "./..." (or no patterns) keeps everything; "./x" keeps package x only;
// "./x/..." keeps the subtree.
func filterPatterns(root string, diags []analysis.Diagnostic, patterns []string) []analysis.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	keepAll := false
	type match struct {
		dir     string
		subtree bool
	}
	var matches []match
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			keepAll = true
			continue
		}
		subtree := false
		if strings.HasSuffix(pat, "/...") {
			subtree = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		matches = append(matches, match{dir: filepath.Clean(pat), subtree: subtree})
	}
	if keepAll {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil || strings.HasPrefix(rel, "..") {
			rel = d.File
		}
		dir := filepath.Dir(rel)
		for _, m := range matches {
			if dir == m.dir || (m.subtree && strings.HasPrefix(dir+"/", m.dir+"/")) {
				kept = append(kept, d)
				break
			}
		}
	}
	return kept
}
