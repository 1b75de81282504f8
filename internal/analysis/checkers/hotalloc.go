package checkers

import (
	"go/ast"
	"go/types"

	"shelfsim/internal/analysis"
)

// Hotalloc polices the cycle loop's allocation-free contract: the
// incremental scheduler work (DESIGN.md "Scheduler") moved every per-cycle
// structure onto freelists, rings and pre-sized scratch, so the steady
// state allocates nothing. This analyzer keeps it that way statically: in
// internal/core, any function reachable from the cycle loop (Core.Step /
// Core.Run) must not heap-allocate. It flags
//
//   - &T{...} composite-literal allocations (the classic per-uop churn),
//     except error types — typed invariant panics are cold paths by
//     definition; and
//   - make calls with a non-constant length or capacity — a make sized by
//     runtime state inside the cycle loop is a resize that belongs on an
//     amortized growth path.
//
// Audited amortized-growth sites (freelist refill, ring doubling) carry
// //shelfvet:ignore hotalloc with a justification. Reachability is
// name-based and package-local, deliberately over-approximate: a same-name
// helper being policed too costs a directive, a missed allocation costs
// the contract.
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid heap allocation in functions reachable from the cycle loop (Core.Step/Core.Run) or the chip's parallel step path (Chip.Step)",
	Run:  runHotalloc,
}

// hotallocRoot names one entry-point set: the methods on recv whose
// package-local call closure must stay allocation-free.
type hotallocRoot struct {
	recv    string
	methods []string
}

// hotallocRoots scopes the check per package: internal/core's cycle loop
// (mem and steer are driven through pre-sized state owned by core), and
// internal/chip's per-epoch step — the path every core goroutine runs, so
// an allocation there multiplies by NumCores and serializes on the heap
// lock. Chip.Rebalance runs once per epoch on one goroutine and is
// deliberately not a root.
var hotallocRoots = map[string][]hotallocRoot{
	"internal/core": {{recv: "Core", methods: []string{"Step", "Run"}}},
	"internal/chip": {{recv: "Chip", methods: []string{"Step"}}},
}

func runHotalloc(pass *analysis.Pass) error {
	var roots []hotallocRoot
	for suffix, rs := range hotallocRoots {
		if pathIn(pass.Pkg.Path(), []string{suffix}) {
			roots = rs
			break
		}
	}
	if roots == nil {
		return nil
	}

	// Collect every function declaration, keyed by bare name (methods by
	// method name — over-approximate across receivers by design).
	decls := map[string][]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
			}
		}
	}

	// Roots: the package's cycle-loop entry points.
	var work []string
	for _, root := range roots {
		for _, name := range root.methods {
			for _, fd := range decls[name] {
				if recvNamed(pass, fd) == root.recv {
					work = append(work, name)
					break
				}
			}
		}
	}

	// Name-based closure over package-local calls: any identifier or
	// selector that names a declared function marks it reachable.
	reachable := map[string]bool{}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if reachable[name] {
			continue
		}
		reachable[name] = true
		for _, fd := range decls[name] {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var callee string
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee = fun.Name
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				default:
					return true
				}
				if _, declared := decls[callee]; declared && !reachable[callee] {
					work = append(work, callee)
				}
				return true
			})
		}
	}

	for name := range reachable {
		for _, fd := range decls[name] {
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// recvNamed returns the bare name of fd's receiver type, or "".
func recvNamed(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkHotFunc reports the allocation sites inside one reachable function.
func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			lit, ok := e.X.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(lit)
			if t == nil || types.Implements(t, errorInterface) ||
				types.Implements(types.NewPointer(t), errorInterface) {
				// Typed invariant panics are cold paths.
				return true
			}
			pass.Reportf(e.Pos(),
				"composite literal allocates in %s, which is reachable from the cycle loop: recycle through a freelist or pre-sized scratch (audited growth paths use //shelfvet:ignore hotalloc)",
				fd.Name.Name)
		case *ast.CallExpr:
			id, ok := e.Fun.(*ast.Ident)
			if !ok || id.Name != "make" {
				return true
			}
			if obj := pass.TypesInfo.Uses[id]; obj == nil || obj != types.Universe.Lookup("make") {
				return true
			}
			for _, arg := range e.Args[1:] {
				if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value == nil {
					pass.Reportf(e.Pos(),
						"make with non-constant size in %s, which is reachable from the cycle loop: size the buffer at construction or grow it on an audited amortized path (//shelfvet:ignore hotalloc)",
						fd.Name.Name)
					break
				}
			}
		}
		return true
	})
}
