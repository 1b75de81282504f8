package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"shelfsim/internal/analysis"
)

// goroleakSuffixes are the long-lived concurrent layers: packages where a
// goroutine without a shutdown signal outlives requests and accumulates.
var goroleakSuffixes = []string{
	"internal/serve",
	"internal/store",
	"internal/runner",
	// Fixture mirrors.
	"goroleak/serve",
	"goroleak/store",
	"goroleak/runner",
}

// Goroleak requires every `go` statement in the serving layers to have a
// provable exit path. A goroutine is accepted when its body (ignoring
// nested function literals, which are their own goroutines' problem)
// contains a shutdown-capable blocking construct —
//
//   - a channel receive (`<-ch`, which includes `<-ctx.Done()`),
//   - a select with at least one case,
//   - a range over a channel (exits when the channel is closed),
//   - cond.Wait (the shard inbox protocol: woken and re-checks a closed
//     flag), or
//   - a sync.WaitGroup Done/Wait (the goroutine is registered with, or
//     joins on, a tracked group)
//
// — or when it contains no loop at all (bounded work that runs off the
// end). A loop with none of these can only be stopped by process exit:
// that is the leaked-goroutine incident class from the serve layer's
// Wait regression. `go f()` where f is declared in the same package is
// checked through f's body; a spawn whose body the checker cannot see
// must carry an audited //shelfvet:ignore.
var Goroleak = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "every goroutine in internal/serve, internal/store and internal/runner must have a provable exit path (ctx/done channel, closed channel, cond, or WaitGroup)",
	Run:  runGoroleak,
}

func runGoroleak(pass *analysis.Pass) error {
	if !pathIn(pass.Pkg.Path(), goroleakSuffixes) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, g)
			if body == nil {
				pass.Reportf(g.Pos(),
					"goroutine spawns a function declared outside this package: its exit path cannot be checked here — spawn a local wrapper with a shutdown signal, or audit with an ignore")
				return true
			}
			if !hasExitPath(pass, body) {
				pass.Reportf(g.Pos(),
					"goroutine has no provable exit path: it loops without a channel receive, select, cond.Wait, or WaitGroup — tie it to a ctx/done/closed channel so shutdown can reach it")
			}
			return true
		})
	}
	return nil
}

// spawnedBody resolves the body of the function a go statement runs:
// the literal itself, or a function/method declared in this package.
func spawnedBody(pass *analysis.Pass, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	fn := calleeFunc(pass, g.Call)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.TypesInfo.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// hasExitPath reports whether a goroutine body is loop-free (bounded
// work) or contains a shutdown-capable blocking construct.
func hasExitPath(pass *analysis.Pass, body *ast.BlockStmt) bool {
	hasLoop, hasSignal := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own goroutine's problem, or a plain call
		case *ast.ForStmt:
			hasLoop = true
		case *ast.RangeStmt:
			hasLoop = true
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					hasSignal = true // exits when the channel is closed
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				hasSignal = true
			}
		case *ast.SelectStmt:
			if len(n.Body.List) > 0 {
				hasSignal = true
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				recv := receiverTypeName(fn)
				switch {
				case recv == "Cond" && fn.Name() == "Wait":
					hasSignal = true
				case recv == "WaitGroup" && (fn.Name() == "Done" || fn.Name() == "Wait"):
					hasSignal = true
				}
			}
		}
		return true
	})
	return hasSignal || !hasLoop
}
