package lint

import "go/ast"

// CtxFlow enforces context threading with one rule: outside package main,
// nothing calls context.Background() or context.TODO(). Every operation
// that does work takes a context.Context, so library code always has a
// caller's context to pass on; a fresh root there severs that caller's
// cancellation and deadline. A command's main (and a test, which the lint
// loader never loads) is where roots are made.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "no context.Background()/TODO() outside package main: thread the caller's context",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(call.Pos(),
					"context.%s() outside package main: take a ctx parameter and thread the caller's context", fn.Name())
			}
			return true
		})
	}
}
