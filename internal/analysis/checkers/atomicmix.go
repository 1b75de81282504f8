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
// Two forms are policed, in every non-test file of the module:
//
//   - function-style atomics: atomic.LoadT(&x.f, ...) marks x.f's field
//     object as atomic; any other plain mention of that field in the
//     package is reported (identity is the field/var object, so the rule
//     follows the field across methods with different receiver names);
//   - type-style atomics (atomic.Int64, atomic.Pointer[T], ...): the
//     value must only appear as a method receiver or behind &; copying
//     it (assignment, argument, return, composite literal, comparison)
//     smuggles the raw word out from under the atomic API.
var Atomicmix = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "a variable accessed via sync/atomic must never be read or written plainly, and atomic-typed values must never be copied",
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

	// Pass 2: report plain mentions of atomic objects and copies of
	// atomic-typed values. The walk keeps a parent so an expression used
	// as a method receiver or address-of target is not a copy.
	for _, f := range pass.Files {
		var walk func(parent, n ast.Node)
		walk = func(parent, n ast.Node) {
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
					if isAtomicValueCopy(pass, parent, e) {
						pass.Reportf(e.Pos(),
							"%s copies a sync/atomic value: atomic values must be used via methods or a pointer, never copied",
							renderExpr(e))
						return
					}
				}
				// The selector's field name is handled above; only the
				// base expression can hold further references.
				walk(e, e.X)
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
					return
				}
				if isAtomicValueCopy(pass, parent, e) {
					pass.Reportf(e.Pos(),
						"%s copies a sync/atomic value: atomic values must be used via methods or a pointer, never copied",
						e.Name)
				}
				return
			}
			cur := n
			ast.Inspect(n, func(x ast.Node) bool {
				if x == nil || x == n {
					return true
				}
				walk(cur, x)
				return false
			})
		}
		walk(nil, f)
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

// isAtomicValueCopy reports whether expression e denotes a value of a
// sync/atomic named type used in a copying position: anywhere except as
// a method receiver (parent selector), an address-of target, or a
// pointer dereference base.
func isAtomicValueCopy(pass *analysis.Pass, parent ast.Node, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || !tv.IsValue() {
		return false
	}
	t := tv.Type
	if _, isPtr := t.(*types.Pointer); isPtr {
		return false // pointer to atomic is the correct currency
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return false
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// e is the receiver of a method call or field access: fine.
		return p.X != e
	case *ast.UnaryExpr:
		return p.Op != token.AND
	case *ast.StarExpr:
		return false
	case nil:
		return false
	}
	return true
}
