package checkers

import (
	"go/ast"
	"go/types"

	"shelfsim/internal/analysis"
)

// Maprange forbids ranging over maps in the deterministic-core packages.
// Go randomizes map iteration order per run; inside the simulated pipeline
// that order can reach architectural state (which invariant fires first,
// which queue drains first) and two identical configurations would then
// diverge — exactly what the paper's issue-tracking correctness argument
// (§III-A/B) assumes cannot happen. Iterate a sorted key slice instead, or
// suppress an audited commutative site with //shelfvet:ignore maprange.
var Maprange = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "forbid range-over-map in internal/core, internal/mem, internal/steer and internal/chip (iteration order is nondeterministic)",
	Run:  runMaprange,
}

func runMaprange(pass *analysis.Pass) error {
	if !policed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); ok {
				pass.Reportf(rs.Pos(),
					"range over map of type %s in the simulation path: iteration order is nondeterministic; iterate a sorted slice instead",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
			return true
		})
	}
	return nil
}
