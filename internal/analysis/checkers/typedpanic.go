package checkers

import (
	"go/ast"
	"go/types"

	"shelfsim/internal/analysis"
)

// Typedpanic requires every panic in internal/core to carry a value whose
// type implements error — in practice *core.InvariantError. The supervised
// runner recovers pipeline panics and attributes them to a configuration,
// cycle and thread; a bare string (or fmt.Sprintf result) panic would
// surface as an unattributable crash instead of a structured SimError.
var Typedpanic = &analysis.Analyzer{
	Name: "typedpanic",
	Doc:  "require panics in internal/core to carry a typed error (e.g. *InvariantError), never bare strings",
	Run:  runTypedpanic,
}

// typedpanicSuffixes scopes the check to the pipeline package whose panics
// the runner must be able to attribute.
var typedpanicSuffixes = []string{"internal/core"}

func runTypedpanic(pass *analysis.Pass) error {
	if !pathIn(pass.Pkg.Path(), typedpanicSuffixes) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
				return true
			}
			arg := call.Args[0]
			t := pass.TypesInfo.TypeOf(arg)
			if t == nil {
				return true
			}
			if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
				pass.Reportf(call.Pos(), "panic(nil) in the pipeline: panic with a typed error such as *InvariantError")
				return true
			}
			t = types.Default(t)
			rel := types.TypeString(t, types.RelativeTo(pass.Pkg))
			switch {
			case types.Implements(t, errorInterface):
				// Typed panic: the runner's errors.As attribution works.
			case types.Implements(types.NewPointer(t), errorInterface):
				// Only the pointer implements error (the InvariantError
				// shape): panicking with the value would still defeat the
				// runner's errors.As attribution.
				pass.Reportf(call.Pos(),
					"panic argument has type %s; only *%s implements error, so panic with the pointer", rel, rel)
			default:
				pass.Reportf(call.Pos(),
					"panic argument has type %s, which does not implement error: the supervised runner can only attribute typed panics (use *InvariantError or another error type)", rel)
			}
			return true
		})
	}
	return nil
}
