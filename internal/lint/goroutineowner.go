package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineOwner enforces that spawned goroutines have owners. Two rules
// over every go statement in non-test code:
//
//  1. The goroutine must carry a provable termination signal: a
//     context.Context passed in or mentioned in its body, a receive from a
//     done-style chan struct{}, or a (*sync.WaitGroup).Done call. For
//     go-on-named-function the search follows the call graph through the
//     spawned function's transitive callees, so a signal checked two
//     frames down (scanshare's producer, which stops in BatchPipe.Send's
//     select on the consumer's abandon signal) still counts.
//  2. A send from a goroutine literal on an unbuffered channel made in the
//     spawning function blocks forever if the parent has left: the channel
//     must be buffered, or the send guarded by a select with an escape arm
//     (receive or default).
var GoroutineOwner = &Analyzer{
	Name:       "goroutineowner",
	Doc:        "go statements need a termination signal; sends to the parent need buffering or a drain guarantee",
	NeedsGraph: true,
	Run:        runGoroutineOwner,
}

func runGoroutineOwner(pass *Pass) {
	for _, f := range pass.Files {
		for _, fb := range functionBodies(f) {
			// Walk only this function's own statements: nested literals are
			// separate entries, so each go statement is seen exactly once,
			// with its nearest enclosing function as the parent scope.
			inspectSkippingFuncLits(fb.body, func(n ast.Node) {
				if g, ok := n.(*ast.GoStmt); ok {
					checkGoStmt(pass, fb, g)
				}
			})
		}
	}
}

// inspectSkippingFuncLits visits the nodes of body that belong to the
// function itself, not to nested function literals.
func inspectSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n.Pos() != body.Pos() {
			return false
		}
		visit(n)
		return true
	})
}

func checkGoStmt(pass *Pass, parent funcBody, g *ast.GoStmt) {
	if !goHasTerminationSignal(pass, g) {
		pass.Reportf(g.Pos(),
			"goroutine has no termination signal: no ctx, done channel, or WaitGroup reachable in its body")
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		checkParentSends(pass, parent, lit)
	}
}

// goHasTerminationSignal proves rule 1 for one go statement.
func goHasTerminationSignal(pass *Pass, g *ast.GoStmt) bool {
	// A ctx handed to the spawned call is a signal regardless of body.
	for _, arg := range g.Call.Args {
		if t := pass.Info.TypeOf(arg); t != nil && isContextType(t) {
			return true
		}
	}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if bodyHasSignal(pass.Info, fun.Body) {
			return true
		}
		// Follow the literal's statically known callees through the graph.
		found := false
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if fn := calleeFunc(pass.Info, call); fn != nil && closureHasSignal(pass.Graph, fn) {
				found = true
			}
			return !found
		})
		return found
	default:
		if fn := calleeFunc(pass.Info, g.Call); fn != nil {
			return closureHasSignal(pass.Graph, fn)
		}
	}
	// Spawn through a function value: nothing provable, require a ctx arg.
	return false
}

// closureHasSignal reports whether fn or any function it transitively
// calls mentions a termination signal.
func closureHasSignal(graph *CallGraph, fn *types.Func) bool {
	for _, node := range graph.Closure(fn) {
		if bodyHasSignal(node.Pkg.Info, node.Decl.Body) {
			return true
		}
	}
	return false
}

// bodyHasSignal looks for any of the three signal shapes lexically within
// body: a context.Context-typed expression, a receive from a
// chan struct{}, or a WaitGroup.Done call.
func bodyHasSignal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if t := info.TypeOf(x); t != nil && isContextType(t) {
				found = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && isDoneChan(info.TypeOf(x.X)) {
				found = true
			}
		case *ast.RangeStmt:
			if isDoneChan(info.TypeOf(x.X)) {
				found = true
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, x); fn != nil && fn.Name() == "Done" {
				if pkg, tn, ok := recvTypeName(fn); ok && tn == "WaitGroup" && pkg != nil && pkg.Path() == "sync" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isDoneChan reports whether t is a channel of empty structs — the
// conventional done-channel type.
func isDoneChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// checkParentSends proves rule 2: every send in the goroutine literal on a
// channel the parent made unbuffered must sit in a select with an escape
// arm.
func checkParentSends(pass *Pass, parent funcBody, lit *ast.FuncLit) {
	unbuffered := unbufferedChansOf(pass.Info, parent.body)
	if len(unbuffered) == 0 {
		return
	}
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		switch s := n.(type) {
		case nil:
			return
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				cc := c.(*ast.CommClause)
				for _, sub := range append([]ast.Stmt{cc.Comm}, cc.Body...) {
					if sub != nil {
						walk(sub, guarded || selectHasEscapeArm(s, cc))
					}
				}
			}
			return
		case *ast.SendStmt:
			if id, ok := ast.Unparen(s.Chan).(*ast.Ident); ok && !guarded {
				if obj := pass.Info.ObjectOf(id); obj != nil && unbuffered[obj] {
					pass.Reportf(s.Arrow,
						"send on unbuffered channel %s made in the spawning function: if the parent is gone this blocks forever; buffer the channel or guard the send with a select escape arm",
						id.Name)
				}
			}
		}
		// Generic recursion over children, skipping nested literals.
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n {
				return true
			}
			if _, isLit := child.(*ast.FuncLit); isLit {
				return false
			}
			switch child.(type) {
			case *ast.SelectStmt, *ast.SendStmt:
				walk(child, guarded)
				return false
			}
			return true
		})
	}
	walk(lit.Body, false)
}

// selectHasEscapeArm reports whether sel offers the sender in clause `in`
// an escape: a default clause or a receive in another arm.
func selectHasEscapeArm(sel *ast.SelectStmt, in *ast.CommClause) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc == in {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return true
			}
		case *ast.AssignStmt:
			for _, rhs := range comm.Rhs {
				if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					return true
				}
			}
		}
	}
	return false
}

// unbufferedChansOf collects the channel variables body creates with an
// unbuffered make: make(chan T) or make(chan T, 0).
func unbufferedChansOf(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n.Pos() != body.Pos() {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isUnbufferedMake(info, call) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isUnbufferedMake reports whether call is make(chan T) or an equivalent
// zero-capacity make.
func isUnbufferedMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false // non-constant capacity: assume buffered
	}
	return tv.Value.String() == "0"
}
