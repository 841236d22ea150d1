// Package analysis implements casc-lint, a from-scratch static-analysis
// suite (go/parser + go/types only, no golang.org/x/tools) that enforces
// the determinism, cancellation and observability invariants the CA-SC
// solver stack depends on. Incremental and sharded rounds reproduce the
// paper's scores only because every solver path is deterministic under a
// seed; the rules here turn that property — and the cancellation and
// metrics contracts around it — into machine-checked invariants instead
// of conventions guarded by flaky seed-equality tests. See DESIGN.md §9.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file position. File is the path
// as the loader saw it (absolute); drivers relativize for display.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Rule, d.Message)
}

// Rule is one analyzer of the suite.
type Rule struct {
	Name string
	Doc  string
	// Scope lists import-path suffixes the rule is restricted to; empty
	// means every package. Options.IgnoreScope bypasses it (used by the
	// golden tests, whose fixtures live under testdata paths).
	Scope []string
	// Check inspects one package and reports findings.
	Check func(p *Package, r *Reporter)
	// ReadsContext makes Run pass the Options.Context packages to Check
	// as well; findings reported on them are dropped.
	ReadsContext bool
	// Finish, if set, runs once after every package has been checked —
	// for cross-package invariants like metric-name uniqueness.
	Finish func(report func(pos token.Position, format string, args ...any))
}

func (rule *Rule) applies(path string) bool {
	if len(rule.Scope) == 0 {
		return true
	}
	for _, s := range rule.Scope {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// AllRules returns a fresh instance of every rule in the suite. Fresh
// because rules may carry cross-package state (metricname); sharing
// instances between runs would leak findings.
func AllRules() []*Rule {
	return []*Rule{
		newMapOrder(),
		newSeededRand(),
		newCtxLoop(),
		newMetricName(),
		newDroppedErr(),
		newHotAlloc(),
		newArenaEscape(),
		newLockBalance(),
		newCtxProp(),
		newFloatDet(),
		newDeadCode(),
	}
}

// Reporter collects diagnostics for one (package, rule) pair.
type Reporter struct {
	pkg  *Package
	rule string
	out  *[]Diagnostic
}

// Report records a finding at the node's position.
func (r *Reporter) Report(n ast.Node, format string, args ...any) {
	r.ReportPos(n.Pos(), format, args...)
}

// ReportPos records a finding at an explicit position.
func (r *Reporter) ReportPos(pos token.Pos, format string, args ...any) {
	p := r.pkg.Fset.Position(pos)
	*r.out = append(*r.out, Diagnostic{
		Rule:    r.rule,
		File:    p.Filename,
		Line:    p.Line,
		Column:  p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Options configures Run.
type Options struct {
	// Rules is the rule subset to run; nil runs AllRules().
	Rules []*Rule
	// IgnoreScope runs every rule on every package regardless of Scope.
	IgnoreScope bool
	// Context lists packages read only as whole-program context, such as
	// nested modules: rules with ReadsContext see them, none report on
	// them.
	Context []*Package
}

// SuppressRule is the pseudo-rule under which malformed
// //casclint:ignore comments are reported. It cannot itself be
// suppressed.
const SuppressRule = "casclint"

// Run executes the rules over the packages, applies inline suppressions,
// and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, opts Options) []Diagnostic {
	rules := opts.Rules
	if rules == nil {
		rules = AllRules()
	}
	var diags []Diagnostic
	ran := make(map[*Package]map[string]bool)
	for _, rule := range rules {
		for _, p := range pkgs {
			if !opts.IgnoreScope && !rule.applies(p.Path) {
				continue
			}
			if ran[p] == nil {
				ran[p] = make(map[string]bool)
			}
			ran[p][rule.Name] = true
			rule.Check(p, &Reporter{pkg: p, rule: rule.Name, out: &diags})
		}
		if rule.ReadsContext {
			var dropped []Diagnostic
			for _, p := range opts.Context {
				rule.Check(p, &Reporter{pkg: p, rule: rule.Name, out: &dropped})
			}
		}
		if rule.Finish != nil {
			name := rule.Name
			rule.Finish(func(pos token.Position, format string, args ...any) {
				diags = append(diags, Diagnostic{
					Rule:    name,
					File:    pos.Filename,
					Line:    pos.Line,
					Column:  pos.Column,
					Message: fmt.Sprintf(format, args...),
				})
			})
		}
	}
	diags = applySuppressions(pkgs, diags, ran)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags
}

// suppressionRE matches //casclint:ignore <rule>[,<rule>...] <reason>.
// The reason is mandatory: a suppression without a recorded justification
// is itself a finding.
var suppressionRE = regexp.MustCompile(`^//casclint:ignore(?:\s+(\S+))?\s*(.*)$`)

type suppressKey struct {
	file string
	line int
	rule string
}

// suppRec is one (comment, rule) suppression instance, tracked so that a
// suppression whose rule never fires on its lines is itself reported —
// stale suppressions otherwise rot into silent blind spots.
type suppRec struct {
	file   string
	line   int // comment line
	column int
	rule   string
	live   bool // the rule actually ran on this package this run
	used   bool
}

// applySuppressions drops diagnostics covered by a well-formed
// //casclint:ignore comment on the same line or the line directly above,
// and reports under SuppressRule: malformed suppression comments,
// suppressions naming rules the suite does not have, and unused
// suppressions (the named rule ran on the package but fired nothing on the
// covered lines). ran maps each package to the rules that checked it; a
// suppression for a rule that did not run is left alone, not declared
// unused.
func applySuppressions(pkgs []*Package, diags []Diagnostic, ran map[*Package]map[string]bool) []Diagnostic {
	known := make(map[string]bool)
	for _, r := range AllRules() {
		known[r.Name] = true
	}
	var recs []*suppRec
	cover := make(map[suppressKey][]*suppRec)
	var extra []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := suppressionRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					rules, reason := m[1], strings.TrimSpace(m[2])
					if rules == "" || reason == "" {
						extra = append(extra, Diagnostic{
							Rule: SuppressRule, File: pos.Filename,
							Line: pos.Line, Column: pos.Column,
							Message: "malformed suppression: want //casclint:ignore <rule>[,<rule>] <reason>",
						})
						continue
					}
					for _, rule := range strings.Split(rules, ",") {
						if !known[rule] {
							extra = append(extra, Diagnostic{
								Rule: SuppressRule, File: pos.Filename,
								Line: pos.Line, Column: pos.Column,
								Message: fmt.Sprintf("suppression names unknown rule %q", rule),
							})
							continue
						}
						rec := &suppRec{
							file: pos.Filename, line: pos.Line, column: pos.Column,
							rule: rule, live: ran[p][rule],
						}
						recs = append(recs, rec)
						// A suppression covers its own line (trailing
						// comment) and the line below (own-line comment).
						cover[suppressKey{pos.Filename, pos.Line, rule}] = append(cover[suppressKey{pos.Filename, pos.Line, rule}], rec)
						cover[suppressKey{pos.Filename, pos.Line + 1, rule}] = append(cover[suppressKey{pos.Filename, pos.Line + 1, rule}], rec)
					}
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Rule != SuppressRule {
			if rs := cover[suppressKey{d.File, d.Line, d.Rule}]; len(rs) > 0 {
				for _, r := range rs {
					r.used = true
				}
				continue
			}
		}
		kept = append(kept, d)
	}
	for _, r := range recs {
		if r.live && !r.used {
			extra = append(extra, Diagnostic{
				Rule: SuppressRule, File: r.file, Line: r.line, Column: r.column,
				Message: fmt.Sprintf("unused suppression: %s does not fire here; remove it", r.rule),
			})
		}
	}
	return append(kept, extra...)
}

// Report is the JSON document casc-lint -json emits.
type Report struct {
	Version     int          `json:"version"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// WriteJSON renders diagnostics as the stable -json schema. A nil slice
// still marshals as an empty array so consumers can index unconditionally.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Version: 1, Diagnostics: diags})
}
