package analysis

import (
	"fmt"
	"go/ast"
	"testing"

	"shelfsim/internal/analysis/cfg"
)

// TestSelfCheckModule builds and structurally verifies a CFG for every
// function declaration and literal in the whole module: the totality
// guarantee the flow-sensitive checkers rely on, exercised against real
// code instead of fixtures. Any builder panic or Check failure is a
// test failure naming the offending function.
func TestSelfCheckModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and parses the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("module load returned no packages")
	}
	funcs := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.FuncDecl:
					body = n.Body
				case *ast.FuncLit:
					body = n.Body
				default:
					return true
				}
				if body == nil {
					return true
				}
				funcs++
				if err := buildAndCheckCFG(body); err != nil {
					t.Errorf("%s: %v", p.Fset.Position(n.Pos()), err)
				}
				return true
			})
		}
	}
	if funcs < 100 {
		t.Fatalf("self-check visited only %d functions; the module loader is dropping packages", funcs)
	}
	t.Logf("self-check: %d functions across %d packages", funcs, len(pkgs))
}

// buildAndCheckCFG builds one function's CFG, converting builder panics
// into errors so one bad function does not abort the sweep.
func buildAndCheckCFG(body *ast.BlockStmt) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cfg builder panicked: %v", r)
		}
	}()
	return cfg.New(body).Check()
}
