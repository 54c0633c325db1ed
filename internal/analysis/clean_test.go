package analysis_test

import (
	"os"
	"strings"
	"testing"

	"cosim/internal/analysis"
	"cosim/internal/analysis/suite"
)

// TestRepositoryIsCosimvetClean runs the full cosimvet suite over every
// package of the module and fails on any finding, so a regression
// against the determinism, scheme-error or sim.Time invariants fails
// `go test ./...` without anyone remembering to run the tool.
func TestRepositoryIsCosimvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.ModulePackages(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages found in module")
	}
	// The sweep's value depends on its coverage: the command and
	// example trees are where analyzer rules are most often violated
	// first (new CLIs, copy-pasted model code), so a loader regression
	// that silently drops them must fail here, not go unnoticed.
	for _, prefix := range []string{modPath + "/cmd/", modPath + "/examples/", modPath + "/internal/"} {
		found := false
		for _, p := range pkgs {
			if strings.HasPrefix(p.ImportPath, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("module package sweep lost %s... — ModulePackages regression?", prefix)
		}
	}
	analyzers := suite.Analyzers()
	for _, p := range pkgs {
		loaded, err := analysis.LoadDir(p.Dir, p.ImportPath)
		if err != nil {
			t.Fatalf("load %s: %v", p.ImportPath, err)
		}
		diags, err := analysis.Run(loaded, analyzers)
		if err != nil {
			t.Fatalf("run %s: %v", p.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s (%s)", loaded.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
}
