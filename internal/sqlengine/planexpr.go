package sqlengine

import "repro/internal/jsonpath"

// Plan-level expression traversal, rewrite, and rebinding. These are the
// primitives external plan rewriters build on: Maxson's cache planner swaps
// JSON extractions for cache-column placeholders, and the scan-share
// scheduler swaps them for shared-extraction columns. Both then rebind the
// surviving expressions against the scan's rebuilt schema.

// VisitPlanExprs walks every expression of the plan that can reference the
// scan's output: select items, the residual filter, group keys, aggregate
// arguments, order keys, and join keys.
func VisitPlanExprs(plan *PhysicalPlan, f func(Expr)) {
	visit := func(e Expr) {
		if e != nil {
			Walk(e, f)
		}
	}
	for _, it := range plan.Items {
		visit(it.Expr)
	}
	visit(plan.Filter)
	for _, g := range plan.GroupBy {
		visit(g)
	}
	for _, a := range plan.Aggs {
		visit(a.Arg)
	}
	for _, o := range plan.OrderBy {
		visit(o.Expr)
	}
	if plan.Join != nil {
		for _, k := range plan.Join.LeftKeys {
			visit(k)
		}
		for _, k := range plan.Join.RightKeys {
			visit(k)
		}
	}
}

// PathCalls indexes a plan's get_json_object call sites: the distinct paths
// asked of each document column, compiled into one PathSet per column, and
// which of them every call site reads. It is built once per execution, after
// the cache planner and the scan-share scheduler have rewritten the calls
// they serve, and is read-only from then on, so scan partitions share it.
// The engine seeds its evaluators from it; the scan-share scheduler merges
// the participants' sets from it. A nil *PathCalls is a plan with no calls.
type PathCalls struct {
	// Cols lists the document columns in first-call order.
	Cols  []ColumnPaths
	slots map[*JSONPathExpr]PathSlot
}

// ColumnPaths is what a plan asks of one document column.
type ColumnPaths struct {
	// Index is the column's position in the row the calls are evaluated over.
	Index int
	// Set holds the distinct paths (by Canonical form) in first-call order.
	Set *jsonpath.PathSet
}

// PathSlot locates a call site's value: Cols[Col].Set.Paths()[Path].
type PathSlot struct{ Col, Path int }

// Slot returns where call's value is extracted, false for a call site the
// plan did not contain when the index was built.
func (pc *PathCalls) Slot(call *JSONPathExpr) (PathSlot, bool) {
	if pc == nil {
		return PathSlot{}, false
	}
	slot, ok := pc.slots[call]
	return slot, ok
}

// PlanPathCalls indexes every get_json_object call VisitPlanExprs reaches.
// Calls are grouped by the bound position of their document column, so
// differently qualified spellings of one column share a set. In a join plan
// the build side's key expressions are bound against the build row and may
// share a position with a probe-side column; the grouping only decides which
// paths are extracted together, never what a call site reads, so the union
// is merely a larger set for that position.
func PlanPathCalls(plan *PhysicalPlan) *PathCalls {
	var pc *PathCalls
	var paths [][]*jsonpath.Path // parallel to pc.Cols
	VisitPlanExprs(plan, func(e Expr) {
		call, ok := e.(*JSONPathExpr)
		if !ok || call.Column.index < 0 {
			return
		}
		if pc == nil {
			pc = &PathCalls{slots: make(map[*JSONPathExpr]PathSlot)}
		}
		ci := 0
		for ci < len(pc.Cols) && pc.Cols[ci].Index != call.Column.index {
			ci++
		}
		if ci == len(pc.Cols) {
			pc.Cols = append(pc.Cols, ColumnPaths{Index: call.Column.index})
			paths = append(paths, nil)
		}
		pi := 0
		for pi < len(paths[ci]) && !paths[ci][pi].Equal(call.Path) {
			pi++
		}
		if pi == len(paths[ci]) {
			paths[ci] = append(paths[ci], call.Path)
		}
		pc.slots[call] = PathSlot{Col: ci, Path: pi}
	})
	if pc != nil {
		for ci := range pc.Cols {
			pc.Cols[ci].Set = jsonpath.MustPathSet(paths[ci]...)
		}
	}
	return pc
}

// RewritePlanExprs applies a rewrite to every plan expression slot that
// VisitPlanExprs covers.
func RewritePlanExprs(plan *PhysicalPlan, f func(Expr) Expr) {
	for i := range plan.Items {
		if plan.Items[i].Expr != nil {
			plan.Items[i].Expr = f(plan.Items[i].Expr)
		}
	}
	if plan.Filter != nil {
		plan.Filter = f(plan.Filter)
	}
	for i := range plan.GroupBy {
		plan.GroupBy[i] = f(plan.GroupBy[i])
	}
	for _, a := range plan.Aggs {
		if a.Arg != nil {
			a.Arg = f(a.Arg)
		}
	}
	for i := range plan.OrderBy {
		plan.OrderBy[i].Expr = f(plan.OrderBy[i].Expr)
	}
	if plan.Join != nil {
		for i := range plan.Join.LeftKeys {
			plan.Join.LeftKeys[i] = f(plan.Join.LeftKeys[i])
		}
		for i := range plan.Join.RightKeys {
			plan.Join.RightKeys[i] = f(plan.Join.RightKeys[i])
		}
	}
}

// Rebind re-resolves every plan expression against the plan's (rebuilt)
// input schema. Post-aggregation items reference keyRefs/aggregates only and
// are left alone; group keys and aggregate arguments rebind. Join keys bind
// against their own side's scan schema.
func (plan *PhysicalPlan) Rebind() error {
	input := plan.InputSchema
	bind := func(e Expr) error {
		if e == nil {
			return nil
		}
		return Bind(e, input)
	}
	if err := bind(plan.Filter); err != nil {
		return err
	}
	if len(plan.Aggs) > 0 || len(plan.GroupBy) > 0 {
		for _, g := range plan.GroupBy {
			if err := bind(g); err != nil {
				return err
			}
		}
		for _, a := range plan.Aggs {
			if err := bind(a.Arg); err != nil {
				return err
			}
		}
		// Items/OrderBy in aggregate plans are post-agg expressions
		// (keyRef/Aggregate only) — no rebinding needed or possible. The
		// rewrite may have made the tail column-shaped, or changed its
		// columns: compile it again.
		plan.tail = compileColumnTail(plan)
		return nil
	}
	for i := range plan.Items {
		if err := bind(plan.Items[i].Expr); err != nil {
			return err
		}
	}
	for i := range plan.OrderBy {
		if err := bind(plan.OrderBy[i].Expr); err != nil {
			return err
		}
	}
	if plan.Join != nil {
		for _, k := range plan.Join.LeftKeys {
			if err := Bind(k, plan.Scan.Schema()); err != nil {
				return err
			}
		}
		for _, k := range plan.Join.RightKeys {
			if err := Bind(k, plan.Join.Build.Schema()); err != nil {
				return err
			}
		}
	}
	return nil
}
