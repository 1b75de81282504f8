package checkers

import (
	"go/ast"
	"go/types"

	"shelfsim/internal/analysis"
)

// Walltime forbids wall-clock reads and the global math/rand source in the
// deterministic-core packages. Simulated time advances only with the cycle
// counter, and all randomness must flow from the seeded workload RNG in the
// configuration, or identical runs stop reproducing (and the fingerprint
// cache silently serves results that no rerun can confirm).
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "forbid time.Now-style wall-clock reads and the global math/rand source in internal/core, internal/mem, internal/steer and internal/chip",
	Run:  runWalltime,
}

// bannedTimeFuncs are the package-level time functions that read or wait on
// the wall clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs construct explicitly seeded generators and are the
// approved way for configuration-driven randomness to enter.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runWalltime(pass *analysis.Pass) error {
	if !policed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s in the simulation path: simulated time is the cycle counter; wall-clock reads make runs irreproducible",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"global rand.%s in the simulation path: randomness must flow from the seeded config RNG (use a *rand.Rand constructed with rand.New)",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
