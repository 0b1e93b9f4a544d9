// Command reprovet runs the repo's custom invariant checkers
// (internal/analysis/*): snapshotmut, mutpipeline, hotalloc and ctxpoll. It
// is built on the dependency-free framework in
// internal/analysis and supports two modes:
//
//	go vet -vettool=$(pwd)/bin/reprovet ./...   # unitchecker protocol (make lint)
//	reprovet ./...                              # standalone, via go list -export
//
// Diagnostics print as "file:line:col: [analyzer] message"; suppress a
// deliberate finding with a `//repro:allow <analyzer> <reason>` comment on
// the flagged line or the line above it.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/suite"
)

func main() {
	if driver.IsVetToolInvocation(os.Args[1:]) {
		driver.UnitMain(suite.Analyzers())
	}
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	n, err := driver.RunPatterns(os.Stderr, args, suite.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprovet:", err)
		os.Exit(1)
	}
	if n > 0 {
		os.Exit(2)
	}
}
