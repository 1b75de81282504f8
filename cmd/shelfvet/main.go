// Shelfvet is the simulator's static-analysis gate: a multichecker of the
// internal/analysis/checkers analyzers that enforce the repo's determinism,
// allocation and serving-layer invariants at review time instead of after
// a million-cycle sweep diverges. Each analyzer guards a bug class that no
// test catches on every path.
//
// Run it over package patterns from the module root:
//
//	go run ./cmd/shelfvet ./...
//	go run ./cmd/shelfvet -json ./... > SHELFVET.json
//
// Diagnostics go to stderr; -json prints one report to stdout instead,
// with the diagnostic count, the packages vetted and every diagnostic. The
// exit code is 0 when clean, 1 when the tool fails and 2 on diagnostics.
package main

import (
	"os"

	"shelfsim/internal/analysis"
	"shelfsim/internal/analysis/checkers"
)

func main() {
	os.Exit(analysis.Main(checkers.All(), os.Args[1:]))
}
