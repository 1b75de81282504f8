package checkers

import (
	"go/ast"
	"go/types"

	"shelfsim/internal/analysis"
)

// errdropStoreSuffixes identify the persistence package: its methods
// return errors that mean data did not durably land, so no caller
// anywhere in the module may drop them.
var errdropStoreSuffixes = []string{
	"internal/store",
	// Fixture mirror.
	"errdrop/store",
}

// errdropCallerSuffixes are the packages whose own I/O (encoding/json,
// os) is policed: the serve and store layers, where a swallowed encode
// or fsync error silently corrupts what a client or a restart reads.
var errdropCallerSuffixes = []string{
	"internal/serve",
	"internal/store",
	// Fixture mirrors.
	"errdrop/serve",
	"errdrop/store",
}

// reportCodecFns are the root package's Report codec entry points; a
// dropped error there means a report that failed to decode or simulate
// is treated as a real result.
var reportCodecFns = map[string]bool{
	"RunReport":    true,
	"DecodeReport": true,
}

// Errdrop flags discarded error results from the module's durability-
// and correctness-critical I/O:
//
//   - any call to a function or method from internal/store, anywhere in
//     the module (a dropped Put/SaveMeta error is a silently lost
//     result);
//   - shelfsim.RunReport / shelfsim.DecodeReport anywhere (the Report
//     codec is the simulator's output contract);
//   - encoding/json and os calls from internal/serve and internal/store
//     (response encoding and the write-ahead temp/fsync/rename dance).
//
// Discarding means an ExprStmt that ignores the results, or an
// assignment that sends every error-typed result to the blank
// identifier. Deferred calls are exempt: a defer cannot propagate an
// error without named-return contortions, and the repo's write paths
// check Sync/Close explicitly before rename instead. Sites where the
// drop is genuinely correct carry an audited //shelfvet:ignore.
var Errdrop = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "error results from store/serve I/O and the Report codec must not be discarded",
	Run:  runErrdrop,
}

func runErrdrop(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// Deferred calls cannot propagate errors; a go statement's
				// function value is not a discarded result. Their bodies'
				// inner statements are still visited.
				if d, ok := n.(*ast.DeferStmt); ok {
					ast.Inspect(d.Call, func(x ast.Node) bool {
						if lit, ok := x.(*ast.FuncLit); ok {
							checkStmtsForDrops(pass, lit.Body)
							return false
						}
						return true
					})
					return false
				}
				return true
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, ok := errdropPoliced(pass, call); ok {
						pass.Reportf(n.Pos(),
							"error result of %s is discarded: handle it or audit the drop with an ignore — a swallowed store/serve I/O error is a silently lost result", name)
					}
				}
				return true
			case *ast.AssignStmt:
				checkAssignDrop(pass, n)
				return true
			}
			return true
		})
	}
	return nil
}

// checkStmtsForDrops re-runs the ExprStmt/AssignStmt checks inside a
// deferred closure: the defer exemption covers the deferred call itself,
// not statements within its body.
func checkStmtsForDrops(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := errdropPoliced(pass, call); ok {
					pass.Reportf(n.Pos(),
						"error result of %s is discarded: handle it or audit the drop with an ignore — a swallowed store/serve I/O error is a silently lost result", name)
				}
			}
		case *ast.AssignStmt:
			checkAssignDrop(pass, n)
		}
		return true
	})
}

// checkAssignDrop flags `_ = call()` / `v, _ := call()` when every
// error-typed result of a policed call goes to the blank identifier.
func checkAssignDrop(pass *analysis.Pass, a *ast.AssignStmt) {
	if len(a.Rhs) != 1 {
		return
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := errdropPoliced(pass, call)
	if !ok {
		return
	}
	errIdxs := errorResultIndexes(pass, call)
	if len(errIdxs) == 0 || len(a.Lhs) <= errIdxs[len(errIdxs)-1] {
		return
	}
	for _, i := range errIdxs {
		id, isIdent := a.Lhs[i].(*ast.Ident)
		if !isIdent || id.Name != "_" {
			return // at least one error result is bound
		}
	}
	pass.Reportf(a.Pos(),
		"error result of %s is assigned to _: handle it or audit the drop with an ignore — a swallowed store/serve I/O error is a silently lost result", name)
}

// errdropPoliced reports whether the call's callee is in the policed
// set and returns a display name for diagnostics. Calls with no
// error-typed result are never policed.
func errdropPoliced(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if len(errorResultIndexes(pass, call)) == 0 {
		return "", false
	}
	pkgPath := fn.Pkg().Path()
	name := fn.Pkg().Name() + "." + fn.Name()
	if recv := receiverTypeName(fn); recv != "" {
		name = recv + "." + fn.Name()
	}
	// Store methods: policed from any calling package.
	if pathIn(pkgPath, errdropStoreSuffixes) {
		return name, true
	}
	// Report codec: policed from any calling package.
	if fn.Pkg().Name() == "shelfsim" && reportCodecFns[fn.Name()] {
		return name, true
	}
	// json/os I/O: policed only inside the serve and store layers.
	if (pkgPath == "encoding/json" || pkgPath == "os") && pathIn(pass.Pkg.Path(), errdropCallerSuffixes) {
		return name, true
	}
	return "", false
}

// errorResultIndexes returns the tuple positions of the call's
// error-typed results.
func errorResultIndexes(pass *analysis.Pass, call *ast.CallExpr) []int {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Implements(sig.Results().At(i).Type(), errorInterface) {
			out = append(out, i)
		}
	}
	return out
}
