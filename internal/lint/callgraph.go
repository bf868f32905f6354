package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is the module-wide static call graph lockorder composes
// per-function lock behaviour over. Nodes are the module's declared
// functions and methods; edges are statically resolved call sites plus an
// over-approximation for calls through module-defined interfaces: a call to
// interface method I.M gets an edge to T.M for every module type T
// implementing I. Function literals are attributed to their enclosing
// declaration (a call made inside a closure is an edge from the declaring
// function), and calls through plain function values are not resolved — the
// graph over-approximates dispatch, not data flow.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
	// modulePkgs marks the type-checked packages of the module itself;
	// interface over-approximation only expands interfaces declared in
	// them (expanding io.Reader or error would drown the graph in edges).
	modulePkgs map[*types.Package]bool
	// namedTypes lists every module named type, the candidate set for
	// interface-implementation queries.
	namedTypes []*types.Named

	implMemo map[*types.Func][]*types.Func

	// lockGraph is lockorder's whole-graph analysis, built on first use so
	// its per-package runs share one computation.
	lockGraph *lockGraph
}

// CallNode is one declared function or method of the module.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []CallEdge
}

// CallEdge is one resolved call site. For interface calls, one site yields
// one edge per implementing module type, all sharing the same Call.
type CallEdge struct {
	Callee *CallNode
	Call   *ast.CallExpr
}

// BuildCallGraph constructs the call graph over every loaded package
// (dependencies included — reachability crosses package boundaries even
// when only a subset is analyzed).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:      make(map[*types.Func]*CallNode),
		modulePkgs: make(map[*types.Package]bool),
		implMemo:   make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		g.modulePkgs[pkg.Types] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.namedTypes = append(g.namedTypes, named)
			}
		}
	}
	// Nodes first, so edges can resolve forward references.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.nodes[fn] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, node := range g.nodes {
		info := node.Pkg.Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			if iface := g.interfaceOf(fn); iface != nil {
				for _, impl := range g.implementations(fn, iface) {
					if callee := g.nodes[impl]; callee != nil {
						node.Out = append(node.Out, CallEdge{Callee: callee, Call: call})
					}
				}
				return true
			}
			if callee := g.nodes[fn]; callee != nil {
				node.Out = append(node.Out, CallEdge{Callee: callee, Call: call})
			}
			return true
		})
	}
	return g
}

// Nodes returns every node sorted by position (deterministic iteration for
// analyses that report).
func (g *CallGraph) Nodes() []*CallNode {
	out := make([]*CallNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	return out
}

// interfaceOf returns the interface type fn is declared on, nil for
// concrete methods, plain functions, and interfaces outside the module.
func (g *CallGraph) interfaceOf(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if fn.Pkg() == nil || !g.modulePkgs[fn.Pkg()] {
		return nil // universe (error) or stdlib interface: do not expand
	}
	return iface
}

// implementations over-approximates dynamic dispatch: every module type
// implementing the interface contributes its method of the same name.
func (g *CallGraph) implementations(ifaceMethod *types.Func, iface *types.Interface) []*types.Func {
	if impls, ok := g.implMemo[ifaceMethod]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range g.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m)
		}
	}
	g.implMemo[ifaceMethod] = impls
	return impls
}

// Closure returns start plus every node transitively reachable from it, in
// deterministic order.
func (g *CallGraph) Closure(start *CallNode) []*CallNode {
	seen := map[*CallNode]bool{start: true}
	queue := []*CallNode{start}
	var out []*CallNode
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, e := range cur.Out {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return out
}
