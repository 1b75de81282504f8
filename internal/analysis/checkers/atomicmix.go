package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"shelfsim/internal/analysis"
)

// Atomicmix enforces the all-or-nothing rule for atomics: once a
// variable or field is accessed through sync/atomic, every access must
// be. A plain read racing an atomic write is not "slightly stale" — it
// is a data race with undefined behavior, and it is exactly the bug
// class behind the serve layer's execGate incident (an atomically
// published gate observed through a plain read).
//
// The rule covers function-style atomics, in every non-test file of the
// module: atomic.LoadT(&x.f, ...) marks x.f's field object as atomic, and
// any other plain mention of that field in the package is reported
// (identity is the field/var object, so the rule follows the field across
// methods with different receiver names). Copies of type-style atomics
// (atomic.Int64, atomic.Pointer[T], ...) are go vet's copylocks check,
// which CI runs, so this analyzer does not repeat it.
var Atomicmix = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "a variable accessed via sync/atomic must never be read or written plainly",
	Run:  runAtomicmix,
}

// atomicFns are the sync/atomic package-level operation families; any
// function whose name starts with one of these takes the target as its
// first (pointer) argument.
var atomicFns = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"}

func runAtomicmix(pass *analysis.Pass) error {
	// Pass 1: find every function-style atomic access, recording the
	// target's object identity and sanctioning the target expression
	// itself (it is the atomic access, not a plain one).
	type atomicUse struct {
		display string
		pos     token.Pos
	}
	atomicObjs := map[types.Object]atomicUse{}
	sanctioned := map[ast.Node]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if !hasAtomicPrefix(fn.Name()) {
				return true
			}
			amp, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || amp.Op != token.AND {
				return true
			}
			target := amp.X
			obj, display := referent(pass, target)
			if obj == nil {
				return true
			}
			sanctioned[target] = true
			if _, seen := atomicObjs[obj]; !seen {
				atomicObjs[obj] = atomicUse{display: display, pos: call.Pos()}
			}
			return true
		})
	}

	// Pass 2: report plain mentions of atomic objects.
	for _, f := range pass.Files {
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			if n == nil {
				return
			}
			if sanctioned[n] {
				return
			}
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if obj := pass.TypesInfo.Uses[e.Sel]; obj != nil {
					if use, ok := atomicObjs[obj]; ok {
						pass.Reportf(e.Pos(),
							"%s is accessed with sync/atomic at %s but accessed plainly here: every read and write must use atomic operations",
							renderExpr(e), pass.Fset.Position(use.pos))
						return
					}
				}
				// The selector's field name is handled above; only the
				// base expression can hold further references.
				walk(e.X)
				return
			case *ast.Ident:
				obj := pass.TypesInfo.Uses[e]
				if obj == nil {
					return
				}
				if use, ok := atomicObjs[obj]; ok {
					pass.Reportf(e.Pos(),
						"%s is accessed with sync/atomic at %s but accessed plainly here: every read and write must use atomic operations",
						e.Name, pass.Fset.Position(use.pos))
				}
				return
			}
			ast.Inspect(n, func(x ast.Node) bool {
				if x == nil || x == n {
					return true
				}
				walk(x)
				return false
			})
		}
		walk(f)
	}
	return nil
}

func hasAtomicPrefix(name string) bool {
	for _, p := range atomicFns {
		if len(name) > len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// referent resolves an expression to the object it names: the final
// field for selector chains, the variable for identifiers.
func referent(pass *analysis.Pass, e ast.Expr) (types.Object, string) {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e], e.Name
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel], renderExpr(e)
	case *ast.ParenExpr:
		return referent(pass, e.X)
	case *ast.IndexExpr:
		// Element of a slice/array/map: no stable object identity.
		return nil, ""
	}
	return nil, ""
}

// renderExpr prints a selector chain for diagnostics; unprintable parts
// degrade to "…".
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(e.X)
	}
	return "…"
}
