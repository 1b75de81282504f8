// Package checkers holds shelfvet's analyzers: the static counterparts of
// the simulator's runtime invariants. Each analyzer guards a bug class that
// no test in the suite catches on every path (racy package globals,
// untyped panics, nondeterministic map iteration, wall-clock leakage,
// cycle-loop allocation, and the serving layer's lock, atomic, goroutine
// and error discipline), so a refactor cannot quietly reintroduce it. See
// DESIGN.md "Static analysis" for the analyzer-to-invariant map and the
// audit that decided which bug classes need one.
package checkers

import (
	"go/ast"
	"go/types"
	"strings"

	"shelfsim/internal/analysis"
)

// All returns every shelfvet analyzer, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Noglobals,
		Typedpanic,
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
// deterministic-core package paths.
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

// calleeFunc resolves a call expression to its function object when it is
// a plain function or method call.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
