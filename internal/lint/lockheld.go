package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockHeld flags blocking work performed while a sync.Mutex or
// sync.RWMutex acquired in the same function is held: calls into the obs
// registry (whose get-or-create path takes the registry's own lock — a
// lock-order and contention hazard on hot paths) and channel sends (which
// can park the goroutine while it holds the lock). Metric handles should
// be resolved up front and incremented lock-free; sends belong outside
// the critical section.
//
// The analysis is intraprocedural and lexical: branch and loop bodies are
// walked with a copy of the held-lock state and fall-through states merge
// conservatively (a lock held on any surviving path counts as held).
// Function literals are analyzed as their own functions, not as part of
// the enclosing critical section.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "no obs registry calls or channel sends while holding a mutex acquired in the same function",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) {
	w := &heldWalker{
		info:     pass.Info,
		identity: func(lock ast.Expr) string { return types.ExprString(lock) },
		send: func(s *ast.SendStmt, held []string) {
			pass.Reportf(s.Arrow, "channel send while holding %s", held[0])
		},
		call: func(call *ast.CallExpr, held []string) {
			fn := calleeFunc(pass.Info, call)
			if pkg, tn, isMethod := recvTypeName(fn); isMethod && tn == "Registry" && pkgPathIs(pkg, "internal/obs") {
				pass.Reportf(call.Pos(),
					"obs.Registry.%s called while holding %s: registry get-or-create takes its own lock", fn.Name(), held[0])
			}
		},
	}
	for _, f := range pass.Files {
		for _, body := range functionBodies(f) {
			w.walk(body.List, map[string]int{})
		}
	}
}

// heldWalker is the branch-aware lexical walk over one function body that
// lockheld and lockorder share. It tracks how many times each lock is held
// at every point and tells its hooks what happens under a lock; what a lock
// *is* (the expression it is written as, or the class of every instance) and
// what to make of the events is the analyzer's business.
type heldWalker struct {
	info *types.Info
	// identity names the lock that a Lock-family call's receiver denotes;
	// a lock it names "" is not tracked.
	identity func(lock ast.Expr) string
	// acquire, call and send see a tracked Lock/RLock, a call expression in
	// a leaf statement, and a channel send. held lists the locks held at
	// that point in sorted order: those held before the acquisition for
	// acquire (possibly none), and at least one for call and send, which are
	// not told about code that runs under no lock. acquire and send may be
	// nil.
	acquire func(id string, pos token.Pos, held []string)
	call    func(call *ast.CallExpr, held []string)
	send    func(s *ast.SendStmt, held []string)
}

// walk processes stmts in order starting from held, returning the
// fall-through state and whether control always terminates (return /
// branch) before the end.
func (w *heldWalker) walk(stmts []ast.Stmt, held map[string]int) (map[string]int, bool) {
	for _, stmt := range stmts {
		var terminated bool
		held, terminated = w.stmt(stmt, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func copyHeld(held map[string]int) map[string]int {
	out := make(map[string]int, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// mergeHeld unions two fall-through states, keeping the higher hold count
// per lock (conservative toward "still held").
func mergeHeld(a, b map[string]int) map[string]int {
	out := copyHeld(a)
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

// heldList returns the locks with a positive hold count, sorted.
func heldList(held map[string]int) []string {
	var out []string
	for k, v := range held {
		if v > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// stmt processes one statement, returning the successor state and whether
// control terminates here.
func (w *heldWalker) stmt(stmt ast.Stmt, held map[string]int) (map[string]int, bool) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return w.walk(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		thenState, thenTerm := w.walk(s.Body.List, copyHeld(held))
		elseState, elseTerm := copyHeld(held), false
		if s.Else != nil {
			elseState, elseTerm = w.stmt(s.Else, copyHeld(held))
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			return mergeHeld(thenState, elseState), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.check(s.Cond, held)
		}
		body, _ := w.walk(s.Body.List, copyHeld(held))
		if s.Post != nil {
			body, _ = w.stmt(s.Post, body)
		}
		return mergeHeld(held, body), false
	case *ast.RangeStmt:
		w.check(s.X, held)
		body, _ := w.walk(s.Body.List, copyHeld(held))
		return mergeHeld(held, body), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.check(r, held)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.SendStmt:
		if w.send != nil {
			if locks := heldList(held); len(locks) > 0 {
				w.send(s, locks)
			}
		}
		w.check(s.Chan, held)
		w.check(s.Value, held)
		return held, false
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end, which is
		// exactly what the remainder of the walk models; no state change.
		// defer mu.Lock() (rare, but possible via helper) acquires.
		if lock, acquires, ok := lockCall(w.info, s.Call); ok {
			if acquires {
				return w.locked(lock, s.Call.Pos(), held), false
			}
			return held, false
		}
		w.check(s.Call, held)
		return held, false
	case *ast.ExprStmt:
		if call, isCall := ast.Unparen(s.X).(*ast.CallExpr); isCall {
			if lock, acquires, ok := lockCall(w.info, call); ok {
				if acquires {
					return w.locked(lock, call.Pos(), held), false
				}
				if id := w.identity(lock); held[id] > 0 {
					held = copyHeld(held)
					held[id]--
				}
				return held, false
			}
		}
		w.check(s.X, held)
		return held, false
	default:
		w.check(stmt, held)
		return held, false
	}
}

// branches walks each case clause of a switch/select from a copy of the
// incoming state and merges the survivors.
func (w *heldWalker) branches(stmt ast.Stmt, held map[string]int) (map[string]int, bool) {
	out := copyHeld(held)
	var clauses []ast.Stmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.check(s.Tag, held)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				if _, term := w.stmt(cc.Comm, copyHeld(held)); term {
					continue
				}
			}
			body = cc.Body
		}
		if state, term := w.walk(body, copyHeld(held)); !term {
			out = mergeHeld(out, state)
		}
	}
	return out, false
}

// locked returns the state after acquiring lock at pos, having told the
// acquire hook what was held before. An untracked lock changes nothing.
func (w *heldWalker) locked(lock ast.Expr, pos token.Pos, held map[string]int) map[string]int {
	id := w.identity(lock)
	if id == "" {
		return held
	}
	if w.acquire != nil {
		w.acquire(id, pos, heldList(held))
	}
	held = copyHeld(held)
	held[id]++
	return held
}

// check hands the call hook every call expression of a leaf node evaluated
// while a lock is held. Function literal subtrees are skipped: they run
// later, as their own functions, not under the current critical section.
func (w *heldWalker) check(node ast.Node, held map[string]int) {
	locks := heldList(held)
	if len(locks) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.call(call, locks)
		}
		return true
	})
}

// lockCall classifies call as a Lock/Unlock-family method on a sync.Mutex
// or sync.RWMutex value, returning the receiver expression (the lock) and
// whether the call acquires it (Lock, RLock) or releases it.
func lockCall(info *types.Info, call *ast.CallExpr) (lock ast.Expr, acquires, ok bool) {
	if call == nil {
		return nil, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		acquires = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	pkg, tn, isMethod := recvTypeName(fn)
	if !isMethod || pkg == nil || pkg.Path() != "sync" || (tn != "Mutex" && tn != "RWMutex") {
		return nil, false, false
	}
	return sel.X, acquires, true
}
