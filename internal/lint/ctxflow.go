package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context threading: a function that receives a
// context.Context must pass it on, not mint a fresh root. Three rules, in
// precedence order per context.Background()/context.TODO() site:
//
//  1. The enclosing function (or a literal inside it) already has a
//     context.Context parameter — the fresh root severs the caller's
//     cancellation and deadline.
//  2. The fresh root is passed directly to a ctx-accepting callee from a
//     function without a ctx parameter. That drops the chain: the function
//     must take a ctx itself. There is no wrapper exemption — every
//     operation has one spelling, the one that takes a context.
//  3. The enclosing function is reachable on the call graph from QueryCtx
//     or RunMidnightCycleCtx, the module's cancellable entry points: a
//     root minted below them escapes the per-query timeout.
//
// Packages named main are exempt — a CLI's main is where roots are
// legitimately created. Test files are never loaded by the lint loader.
var CtxFlow = &Analyzer{
	Name:       "ctxflow",
	Doc:        "context.Background()/TODO() must not sever a caller-supplied or query-scoped context",
	NeedsGraph: true,
	Run:        runCtxFlow,
}

// ctxRoots are the cancellable entry points whose call trees rule 3 guards.
var ctxRoots = []string{"QueryCtx", "RunMidnightCycleCtx"}

func runCtxFlow(pass *Pass) {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return
	}
	reach := pass.Graph.ReachableFrom(ctxRoots...)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFlowDecl(pass, fd, reach)
		}
	}
}

func checkCtxFlowDecl(pass *Pass, fd *ast.FuncDecl, reach map[*types.Func]string) {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	hasParam := fn != nil && hasCtxParam(fn.Type().(*types.Signature))
	root, reachable := "", false
	if fn != nil {
		root, reachable = reach[fn]
	}

	// directArg maps each Background/TODO call that is itself a direct
	// argument of a ctx-accepting call to that call's callee (rule 2).
	directArg := make(map[*ast.CallExpr]*types.Func)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		outer, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, outer)
		if callee == nil {
			return true
		}
		for _, arg := range outer.Args {
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if _, isRoot := ctxRootCall(pass.Info, inner); isRoot {
					directArg[inner] = callee
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, isRoot := ctxRootCall(pass.Info, call)
		if !isRoot {
			return true
		}
		switch {
		case hasParam:
			pass.Reportf(call.Pos(),
				"context.%s() inside %s, which already receives a context.Context: thread the parameter instead",
				name, fd.Name.Name)
		case directArg[call] != nil:
			pass.Reportf(call.Pos(),
				"%s drops the context chain: context.%s() passed to ctx-accepting %s; take a ctx parameter and thread it",
				fd.Name.Name, name, directArg[call].Name())
		case reachable:
			pass.Reportf(call.Pos(),
				"context.%s() in %s, which is reachable from %s: the fresh root escapes the query-scoped deadline",
				name, fd.Name.Name, root)
		}
		return true
	})
}

// ctxRootCall reports whether call is context.Background() or
// context.TODO(), returning which.
func ctxRootCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// hasCtxParam reports whether any parameter of sig is a context.Context.
func hasCtxParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
