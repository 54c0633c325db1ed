// Package suite bundles the cosimvet analyzers. cmd/cosimvet and the
// repo-wide cleanliness test both consume this list, so adding a rule
// here wires it into the CLI and CI in one step.
package suite

import (
	"cosim/internal/analysis"
	"cosim/internal/analysis/detsafe"
	"cosim/internal/analysis/schemeerr"
	"cosim/internal/analysis/timesafe"
)

// Analyzers returns the full cosimvet rule set in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detsafe.Analyzer,
		schemeerr.Analyzer,
		timesafe.Analyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
