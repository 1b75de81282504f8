package checkers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"shelfsim/internal/analysis"
	"shelfsim/internal/analysis/cfg"
	"shelfsim/internal/analysis/dataflow"
)

// Lockdiscipline is the flow-sensitive lock checker: it builds each
// function's CFG, solves the may/must lock-set dataflow problem from
// internal/analysis/dataflow, and reports
//
//   - a Lock (or RLock) that is not matched by an Unlock on every path
//     out of the function — the classic leaked-mutex-on-early-return,
//     which under the shard inbox pattern wedges every later submission
//     to that shard;
//   - a lock still held on an explicit panic path without a deferred
//     Unlock — this repo panics with typed invariant errors, and a
//     supervisor that recovers them must not inherit a dead mutex;
//   - a second Lock of a mutex already must-held — self-deadlock on Go's
//     non-reentrant sync.Mutex;
//   - cond.Wait() called without any mutex must-held, or outside a
//     loop — Wait atomically releases and reacquires its mutex and can
//     wake spuriously, so the guarded condition must be re-checked in a
//     loop with the lock held (the shard-owner inbox pattern).
//
// The analysis is intraprocedural and path-insensitive: a lock acquired
// and released under the same repeated condition in two separate if
// statements is reported even though the paths correlate — such sites
// should be restructured or carry an audited //shelfvet:ignore. Locks
// whose receiver chain the checker cannot name (map/slice elements) are
// skipped entirely, never half-tracked.
var Lockdiscipline = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "every Lock must have an Unlock on all exit paths (including explicit panics), and cond.Wait must run in a loop with the mutex held",
	Run:  runLockdiscipline,
}

func runLockdiscipline(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		forEachFunc(f, func(name string, body *ast.BlockStmt) {
			checkLockFunc(pass, name, body)
		})
	}
	return nil
}

// forEachFunc visits every function body in the file: declarations and
// function literals, each analyzed as its own function (a literal's
// locks are its own problem, not its enclosing function's).
func forEachFunc(f *ast.File, visit func(name string, body *ast.BlockStmt)) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd.Name.Name, fd.Body)
		visitFuncLits(fd.Body, fd.Name.Name, visit)
	}
}

func visitFuncLits(n ast.Node, outer string, visit func(name string, body *ast.BlockStmt)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			name := fmt.Sprintf("func literal in %s", outer)
			visit(name, lit.Body)
			visitFuncLits(lit.Body, outer, visit)
			return false
		}
		return true
	})
}

// lockCall describes one classified sync call site.
type lockCall struct {
	op      dataflow.LockOp
	id      string // stable within-function key
	display string // receiver chain as written, e.g. "sh.mu"
	pos     token.Pos
}

// checkLockFunc runs the lock-set analysis over one function body.
func checkLockFunc(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	// Classify every lock-relevant call up front; skip functions without
	// any so the solver only runs where it matters.
	cls := &lockClassifier{pass: pass, memo: map[ast.Node][]dataflow.LockEvent{}}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed separately
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := cls.classifyCall(call, false); ok {
				found = true
			}
		}
		return true
	})
	if !found {
		return
	}

	g := cfg.New(body)
	la := dataflow.LockAnalysis{Events: cls.events}
	res := dataflow.Forward[dataflow.LockFact](g, la)

	reported := map[string]bool{}
	report := func(key string, pos token.Pos, format string, args ...any) {
		if reported[key] {
			return
		}
		reported[key] = true
		pass.Reportf(pos, format, args...)
	}

	// Exit-path leaks: any lock reaching the normal exit on some path
	// without a release (explicit on that path, or deferred).
	if f, ok := res.In[g.Exit]; ok {
		for _, id := range dataflow.Keys(f.Unprotected) {
			c := cls.first[id]
			report("leak:"+id, c.pos,
				"%s is locked here but not released on every path out of %s: unlock it on each return path or defer the unlock",
				c.display, name)
		}
	}
	// Panic-path leaks: explicit panics (typed invariant violations)
	// must not strand a held mutex; only a deferred unlock covers them.
	if f, ok := res.In[g.Panic]; ok {
		for _, id := range dataflow.Keys(f.Unprotected) {
			c := cls.first[id]
			report("leak:"+id, c.pos,
				"%s is still held when %s panics: defer the unlock so invariant panics release it",
				c.display, name)
		}
	}

	// Event-site checks need the fact at interior points: replay each
	// live block's transfer from its IN fact.
	loops := loopRanges(body)
	for _, b := range g.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		fact := dataflow.LockFact{
			Must:        copySet(in.Must),
			May:         copySet(in.May),
			Unprotected: copySet(in.Unprotected),
		}
		for _, n := range b.Nodes {
			for _, ev := range cls.events(n) {
				switch ev.Op {
				case dataflow.OpAcquire:
					if fact.Must[ev.ID] {
						c := cls.first[ev.ID]
						report(fmt.Sprintf("double:%s:%d", ev.ID, ev.Pos), ev.Pos,
							"%s is locked again while already held: sync mutexes are not reentrant, this self-deadlocks", c.display)
					}
				case dataflow.OpWait:
					if len(fact.Must) == 0 {
						report(fmt.Sprintf("waitheld:%d", ev.Pos), ev.Pos,
							"cond.Wait() without its mutex held: Wait must be called with the associated lock held")
					}
					if !inLoop(loops, ev.Pos) {
						report(fmt.Sprintf("waitloop:%d", ev.Pos), ev.Pos,
							"cond.Wait() outside a loop: spurious wakeups and Broadcast races require re-checking the condition in a for loop")
					}
				}
				applyLockEvent(&fact, ev)
			}
		}
	}
}

// applyLockEvent mirrors the dataflow transfer for the replay pass.
func applyLockEvent(f *dataflow.LockFact, ev dataflow.LockEvent) {
	switch ev.Op {
	case dataflow.OpAcquire:
		f.Must[ev.ID] = true
		f.May[ev.ID] = true
		f.Unprotected[ev.ID] = true
	case dataflow.OpRelease:
		delete(f.Must, ev.ID)
		delete(f.May, ev.ID)
		delete(f.Unprotected, ev.ID)
	case dataflow.OpDeferRelease:
		delete(f.Unprotected, ev.ID)
	}
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// loopRanges collects the source extents of every for/range statement in
// the body (excluding nested function literals), for the Wait-in-loop
// check.
func loopRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, [2]token.Pos{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

func inLoop(loops [][2]token.Pos, pos token.Pos) bool {
	for _, r := range loops {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// lockClassifier turns AST nodes into dataflow lock events using the
// pass's type information.
type lockClassifier struct {
	pass *analysis.Pass
	memo map[ast.Node][]dataflow.LockEvent
	// first records the first classified call per lock id, for
	// diagnostics anchored at the acquisition site.
	first map[string]lockCall
}

// events is the dataflow.LockAnalysis classifier: the lock operations a
// single block node performs, in order. Nested function literals are
// opaque (separate functions), except inside a defer, where an Unlock in
// the deferred closure counts as a deferred release.
func (c *lockClassifier) events(n ast.Node) []dataflow.LockEvent {
	if evs, ok := c.memo[n]; ok {
		return evs
	}
	var evs []dataflow.LockEvent
	if d, ok := n.(*ast.DeferStmt); ok {
		evs = c.deferEvents(d)
	} else {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				evs = append(evs, c.deferEvents(x)...)
				return false
			case *ast.CallExpr:
				if ev, ok := c.classifyCall(x, false); ok {
					evs = append(evs, ev)
				}
			}
			return true
		})
	}
	c.memo[n] = evs
	return evs
}

// deferEvents classifies a defer statement: `defer mu.Unlock()` is the
// canonical deferred release, and releases inside a deferred closure
// (`defer func() { ...; mu.Unlock() }()`) count too — the closure runs
// on every exit. Acquires inside defers are ignored: they execute after
// the body's facts are settled.
func (c *lockClassifier) deferEvents(d *ast.DeferStmt) []dataflow.LockEvent {
	var evs []dataflow.LockEvent
	if ev, ok := c.classifyCall(d.Call, true); ok {
		if ev.Op == dataflow.OpDeferRelease {
			evs = append(evs, ev)
		}
		return evs
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if ev, ok := c.classifyCall(call, true); ok && ev.Op == dataflow.OpDeferRelease {
					evs = append(evs, ev)
				}
			}
			return true
		})
	}
	return evs
}

// classifyCall recognizes the sync package's lock-shaped methods. The
// deferred flag rewrites releases into deferred releases.
func (c *lockClassifier) classifyCall(call *ast.CallExpr, deferred bool) (dataflow.LockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return dataflow.LockEvent{}, false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return dataflow.LockEvent{}, false
	}
	recv := receiverTypeName(fn)
	var op dataflow.LockOp
	mode := ""
	switch fn.Name() {
	case "Lock":
		if recv != "Mutex" && recv != "RWMutex" && recv != "Locker" {
			return dataflow.LockEvent{}, false
		}
		op = dataflow.OpAcquire
	case "Unlock":
		if recv != "Mutex" && recv != "RWMutex" && recv != "Locker" {
			return dataflow.LockEvent{}, false
		}
		op = dataflow.OpRelease
	case "RLock":
		if recv != "RWMutex" {
			return dataflow.LockEvent{}, false
		}
		op, mode = dataflow.OpAcquire, "(r)"
	case "RUnlock":
		if recv != "RWMutex" {
			return dataflow.LockEvent{}, false
		}
		op, mode = dataflow.OpRelease, "(r)"
	case "Wait":
		if recv != "Cond" {
			return dataflow.LockEvent{}, false
		}
		op = dataflow.OpWait
	default:
		return dataflow.LockEvent{}, false
	}
	if deferred && op == dataflow.OpRelease {
		op = dataflow.OpDeferRelease
	}

	key, display, ok := c.chain(sel.X)
	if !ok {
		// Unnameable receiver (map/slice element): skip the whole event
		// rather than mistrack half a pair.
		return dataflow.LockEvent{}, false
	}
	ev := dataflow.LockEvent{Op: op, ID: key + mode, Pos: call.Pos()}
	if c.first == nil {
		c.first = map[string]lockCall{}
	}
	if _, seen := c.first[ev.ID]; !seen || (op == dataflow.OpAcquire && c.first[ev.ID].op != dataflow.OpAcquire) {
		c.first[ev.ID] = lockCall{op: op, id: ev.ID, display: display + mode, pos: call.Pos()}
	}
	return ev, true
}

// chain renders a lock receiver expression as a stable key (rooted at
// the identifier's object, so shadowing cannot alias two locks) plus a
// human-readable display form.
func (c *lockClassifier) chain(e ast.Expr) (key, display string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return "", "", false
		}
		return fmt.Sprintf("%s@%p", e.Name, obj), e.Name, true
	case *ast.SelectorExpr:
		k, d, ok := c.chain(e.X)
		if !ok {
			return "", "", false
		}
		return k + "." + e.Sel.Name, d + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return c.chain(e.X)
	case *ast.StarExpr:
		return c.chain(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.chain(e.X)
		}
	}
	return "", "", false
}

// receiverTypeName unwraps fn's receiver to its named type.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
