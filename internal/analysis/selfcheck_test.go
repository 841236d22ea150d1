package analysis

import "testing"

// TestRepoClean is the self-check acceptance gate: the full rule suite
// over every package of the module must come out clean. Real findings in
// the tree are either fixed or carry a justified //casclint:ignore — a
// bare suppression fails here too (malformed suppressions are findings).
func TestRepoClean(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader lost part of the module", len(pkgs))
	}
	nested, err := l.LoadNestedModules()
	if err != nil {
		t.Fatalf("loading nested modules: %v", err)
	}
	diags := Run(pkgs, Options{Context: nested})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the finding or add `//casclint:ignore <rule> <reason>` with a real justification")
	}
}
