// Package suite enumerates the reprovet analyzers. It exists so that both
// cmd/reprovet and the repo-cleanliness test run the exact same set.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ctxpoll"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/mutpipeline"
	"repro/internal/analysis/snapshotmut"
)

// Analyzers returns the four invariant checkers in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		snapshotmut.Analyzer,
		mutpipeline.Analyzer,
		hotalloc.Analyzer,
		ctxpoll.Analyzer,
	}
}
