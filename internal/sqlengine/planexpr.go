package sqlengine

// Plan-level expression traversal and rebinding, the primitives a plan
// modifier builds on. Maxson's cache planner serves calls from cache columns
// by changing a scan's columns, not its expressions, and then rebinds the
// expressions against the scan's rebuilt schema.

// VisitPlanExprs walks every expression of the plan that reads the scan's
// output, once per slot that holds it: the residual filter, group keys,
// aggregate arguments and join keys, and, in a plan without aggregation, the
// select items and order keys. An aggregate plan's items and order keys read
// the aggregation's output; what they read of the scan is the aggregate
// arguments.
func VisitPlanExprs(plan *PhysicalPlan, f func(Expr)) {
	visit := func(e Expr) {
		if e != nil {
			Walk(e, f)
		}
	}
	if !plan.aggregate {
		for _, it := range plan.Items {
			visit(it.Expr)
		}
		for _, o := range plan.OrderBy {
			visit(o.Expr)
		}
	}
	visit(plan.Filter)
	for _, g := range plan.GroupBy {
		visit(g)
	}
	for _, a := range plan.Aggs {
		visit(a.Arg)
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

// Rebind re-resolves every plan expression against the plan's rebuilt input
// schema. An aggregate plan's items, order keys and HAVING read
// the aggregation's output and are left alone. Join keys bind against their
// own side's scan schema.
func (plan *PhysicalPlan) Rebind() error {
	var err error
	bind := func(schema RowSchema, e Expr) {
		if e != nil && err == nil {
			err = Bind(e, schema)
		}
	}
	bind(plan.InputSchema, plan.Filter)
	if plan.aggregate {
		for _, g := range plan.GroupBy {
			bind(plan.InputSchema, g)
		}
		for _, a := range plan.Aggs {
			bind(plan.InputSchema, a.Arg)
		}
	} else {
		for _, it := range plan.Items {
			bind(plan.InputSchema, it.Expr)
		}
		for _, o := range plan.OrderBy {
			bind(plan.InputSchema, o.Expr)
		}
	}
	if plan.Join != nil {
		for _, k := range plan.Join.LeftKeys {
			bind(plan.Scan.schema, k)
		}
		for _, k := range plan.Join.RightKeys {
			bind(plan.Join.Build.schema, k)
		}
	}
	return err
}
