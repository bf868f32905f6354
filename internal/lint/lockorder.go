package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder lifts lockheld's intra-function held-lock state into a
// module-wide lock-acquisition graph: an edge A → B means some execution
// path acquires lock class B while holding lock class A, either directly
// in one function or through a call chain (held-at-call-site joined with
// the callee's transitive acquisitions over the call graph). A cycle in
// that graph is a potential deadlock — two goroutines entering it from
// different points can each hold what the other needs.
//
// Lock identity is by class, not instance: a named struct field
// (pkg.Type.field) or a package-level var (pkg.var). Locks held on local
// variables are ignored (two locals of one class are usually distinct
// instances), and self-edges A → A are skipped for the same reason —
// class-level analysis cannot tell reacquisition from nesting of two
// instances.
//
// Each cycle is reported once per package that contributes an edge to it,
// at the earliest contributing acquisition or call site in that package.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "no cycles in the module-wide lock-acquisition order (potential deadlock)",
	NeedsGraph: true,
	Run:        runLockOrder,
}

func runLockOrder(pass *Pass) {
	lg := lockGraphOf(pass.Graph)
	if len(lg.cycles) == 0 {
		return
	}
	// Files of this pass, for attributing cycle edges to the package.
	inPkg := make(map[string]bool, len(pass.Files))
	for _, f := range pass.Files {
		inPkg[pass.Fset.Position(f.Pos()).Filename] = true
	}
	for _, cyc := range lg.cycles {
		var at token.Pos
		for _, e := range cyc.edges {
			if !inPkg[pass.Fset.Position(e.pos).Filename] {
				continue
			}
			if at == token.NoPos || e.pos < at {
				at = e.pos
			}
		}
		if at == token.NoPos {
			continue
		}
		pass.Reportf(at, "lock-order cycle: %s (potential deadlock)", cyc.path)
	}
}

// lockClassEdge is one ordered acquisition: to was acquired while from was
// held, witnessed at pos (the acquisition or the call that leads to it).
type lockClassEdge struct {
	from, to string
	pos      token.Pos
}

// lockCycle is one strongly connected component of lock classes.
type lockCycle struct {
	path  string // rendered a → b → a form
	edges []lockClassEdge
}

type lockGraph struct {
	cycles []lockCycle
}

// funcLockSummary is the per-function lock behavior lockorder composes
// over the call graph.
type funcLockSummary struct {
	// acquires: every lock class this function's body (literals included)
	// may acquire.
	acquires map[string]bool
	// edges: class B acquired lexically while class A held, same function.
	edges []lockClassEdge
	// heldAt: lock classes held at each call expression position.
	heldAt map[token.Pos][]string
}

// lockGraphOf builds (once per call graph) the module lock graph and its
// cycles.
func lockGraphOf(g *CallGraph) *lockGraph {
	if g.lockGraph == nil {
		g.lockGraph = buildLockGraph(g)
	}
	return g.lockGraph
}

func buildLockGraph(g *CallGraph) *lockGraph {
	nodes := g.Nodes()
	sums := make(map[*CallNode]*funcLockSummary, len(nodes))
	for _, n := range nodes {
		sums[n] = summarizeLocks(n)
	}

	// Transitive acquisitions per function over the call-graph closure.
	transAcq := func(n *CallNode) map[string]bool {
		out := make(map[string]bool)
		for _, m := range g.Closure(n) {
			for c := range sums[m].acquires {
				out[c] = true
			}
		}
		return out
	}

	var edges []lockClassEdge
	seen := make(map[lockClassEdge]bool)
	addEdge := func(e lockClassEdge) {
		if e.from == e.to {
			return
		}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for _, n := range nodes {
		sum := sums[n]
		for _, e := range sum.edges {
			addEdge(e)
		}
		if len(sum.heldAt) == 0 {
			continue
		}
		// Join held-at-call-site with each callee's transitive acquisitions.
		for _, out := range n.Out {
			held, ok := sum.heldAt[out.Call.Pos()]
			if !ok {
				continue
			}
			for to := range transAcq(out.Callee) {
				for _, from := range held {
					addEdge(lockClassEdge{from: from, to: to, pos: out.Call.Pos()})
				}
			}
		}
	}

	return &lockGraph{cycles: lockCycles(edges)}
}

// lockCycles finds the non-trivial strongly connected components of the
// class graph and renders each as a reportable cycle.
func lockCycles(edges []lockClassEdge) []lockCycle {
	adj := make(map[string][]string)
	classSet := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		classSet[e.from] = true
		classSet[e.to] = true
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		sort.Strings(adj[c])
	}

	// Tarjan's SCC, deterministic by sorted class order.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, c := range classes {
		if _, visited := index[c]; !visited {
			strongconnect(c)
		}
	}

	var cycles []lockCycle
	for _, scc := range sccs {
		sort.Strings(scc)
		member := make(map[string]bool, len(scc))
		for _, c := range scc {
			member[c] = true
		}
		var contributing []lockClassEdge
		for _, e := range edges {
			if member[e.from] && member[e.to] {
				contributing = append(contributing, e)
			}
		}
		parts := make([]string, 0, len(scc)+1)
		for _, c := range scc {
			parts = append(parts, shortLockClass(c))
		}
		parts = append(parts, shortLockClass(scc[0]))
		cycles = append(cycles, lockCycle{
			path:  strings.Join(parts, " → "),
			edges: contributing,
		})
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i].path < cycles[j].path })
	return cycles
}

// shortLockClass trims the import-path directory from a class name:
// "repro/internal/lint/testdata/lockorder.muA" → "lockorder.muA".
func shortLockClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

// summarizeLocks runs the shared held-lock walk over one function with lock
// classes as identities, recording acquisition order and what is held at
// each call instead of reporting.
func summarizeLocks(n *CallNode) *funcLockSummary {
	info := n.Pkg.Info
	sum := &funcLockSummary{
		acquires: make(map[string]bool),
		heldAt:   make(map[token.Pos][]string),
	}
	// acquires is a may-set over the whole body, literals included.
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			if lock, acquires, ok := lockCall(info, call); ok && acquires {
				if class := lockClassOf(info, lock); class != "" {
					sum.acquires[class] = true
				}
			}
		}
		return true
	})
	// Ordered-acquisition edges and held-at-call positions come from the
	// function's own statements; literals run on their own schedule and are
	// summarized as their own nodes' acquires. A lock on a local variable has
	// no class: it neither edges nor holds.
	w := &heldWalker{
		info:     info,
		identity: func(lock ast.Expr) string { return lockClassOf(info, lock) },
		acquire: func(class string, pos token.Pos, held []string) {
			for _, from := range held {
				sum.edges = append(sum.edges, lockClassEdge{from: from, to: class, pos: pos})
			}
		},
		call: func(call *ast.CallExpr, held []string) { sum.heldAt[call.Pos()] = held },
	}
	w.walk(n.Decl.Body.List, map[string]int{})
	return sum
}

// lockClassOf maps a lock expression to its class identity: package-level
// vars to "pkgPath.var", struct fields to "pkgPath.Type.field" (the owner
// type of the field, so s.mu and t.mu of one type share a class). Local
// variables and anything else map to "".
func lockClassOf(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		// Qualified package-level var: obs.mu.
		if id, isID := x.X.(*ast.Ident); isID {
			if pn, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
				return pn.Imported().Path() + "." + x.Sel.Name
			}
		}
		// Struct field: owner named type + field name.
		if sel, hasSel := info.Selections[x]; hasSel && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			if ptr, isPtr := types.Unalias(t).(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := types.Unalias(t).(*types.Named); isNamed {
				obj := named.Obj()
				if obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name() + "." + x.Sel.Name
				}
			}
		}
	}
	return ""
}
