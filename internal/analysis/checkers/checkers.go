// Package checkers holds shelfvet's analyzers: the static counterparts of
// the simulator's runtime invariants. Each analyzer guards a bug class the
// repo has already paid for once (racy package globals, untyped panics,
// config fields missing from the cache fingerprint, nondeterministic map
// iteration, wall-clock leakage) so a refactor cannot quietly reintroduce
// it. See DESIGN.md "Static analysis" for the analyzer-to-invariant map.
package checkers

import (
	"go/types"
	"strings"

	"shelfsim/internal/analysis"
)

// All returns every shelfvet analyzer, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Noglobals,
		Typedpanic,
		Fingerprint,
		Maprange,
		Walltime,
		Hotalloc,
		Lockdiscipline,
		Atomicmix,
		Goroleak,
		Errdrop,
	}
}

// policedSuffixes are the deterministic-core packages: everything that can
// touch architectural state during a simulated cycle. Analyzers that
// enforce determinism and state-ownership scope themselves to these.
var policedSuffixes = []string{
	"internal/core",
	"internal/mem",
	"internal/steer",
	"internal/chip",
}

// policed reports whether pkgPath is (or ends with) one of the
// deterministic-core package paths. Test variants of a package carry a
// bracketed import path ("p [p.test]") and deliberately do not match:
// determinism invariants police architectural state, not test scaffolding.
func policed(pkgPath string) bool {
	return pathIn(pkgPath, policedSuffixes)
}

// pathIn reports whether pkgPath equals or ends (on a path-segment
// boundary) with one of the suffixes. Suffix matching keeps the checkers
// testable against fixture packages mirroring the real layout.
func pathIn(pkgPath string, suffixes []string) bool {
	for _, suf := range suffixes {
		if pkgPath == suf || strings.HasSuffix(pkgPath, "/"+suf) {
			return true
		}
	}
	return false
}

// errorInterface is the universe error type, for Implements checks.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
