package checkers

import (
	"go/ast"
	"go/token"

	"shelfsim/internal/analysis"
)

// Noglobals forbids package-level variables in the deterministic-core
// packages. Package-level mutable state is exactly how the pre-PR-2 debug
// counters made parallel sweeps racy and run results order-dependent: all
// per-run state must hang off the Core/thread/cache instance so concurrent
// simulations never share memory. Compile-time constants are fine; even
// blank interface-assertion vars (`var _ I = ...`) are allowed since they
// carry no state.
var Noglobals = &analysis.Analyzer{
	Name: "noglobals",
	Doc:  "forbid package-level variables (mutable process state) in internal/core, internal/mem, internal/steer and internal/chip",
	Run:  runNoglobals,
}

func runNoglobals(pass *analysis.Pass) error {
	if !policed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level variable %s: simulator state must live on the core instance, not in process globals (the PR-2 race class)",
						name.Name)
				}
			}
		}
	}
	return nil
}
