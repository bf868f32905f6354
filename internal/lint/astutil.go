package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves a call expression to its statically known callee, or
// nil for calls through function values, built-ins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgPathIs reports whether pkg is the module package whose import path
// ends in suffix (e.g. "internal/obs"). Matching by suffix keeps the
// analyzers independent of the module name.
func pkgPathIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// recvTypeName returns the receiver's named-type package and name for a
// method, unwrapping pointers; ok is false for non-methods.
func recvTypeName(fn *types.Func) (pkg *types.Package, name string, ok bool) {
	if fn == nil {
		return nil, "", false
	}
	sig, sigOK := fn.Type().(*types.Signature)
	if !sigOK || sig.Recv() == nil {
		return nil, "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	obj := named.Obj()
	return obj.Pkg(), obj.Name(), true
}

// functionBodies collects every function and method body in the file,
// including function literals, outermost first.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			out = append(out, fn.Body)
		}
		return true
	})
	return out
}
