// Package suite bundles the project's nine analyzers in the order
// cmd/llmdm-lint and the in-tree enforcement tests run them: the five
// per-function analyzers, the three interprocedural ones built on the
// Program/summary layer, then reach.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/billmeter"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/goleak"
	"repro/internal/analysis/gospawn"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/lockscope"
	"repro/internal/analysis/metricname"
	"repro/internal/analysis/reach"
	"repro/internal/analysis/reslifecycle"
)

// All returns the full analyzer suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		lockscope.Analyzer,
		billmeter.Analyzer,
		gospawn.Analyzer,
		metricname.Analyzer,
		lockorder.Analyzer,
		reslifecycle.Analyzer,
		goleak.Analyzer,
		reach.Analyzer,
	}
}

// ByName resolves a comma-separable subset; unknown names return nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
