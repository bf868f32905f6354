package sqlengine

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/datum"
	"repro/internal/orc"
)

// Plan compiles a parsed statement into a physical plan bound against the
// warehouse catalog. It mirrors SparkSQL's pipeline: resolve tables, decide
// which storage columns each scan needs, push storage-column predicates
// down as SARGs, extract aggregates, and bind every expression.
func (e *Engine) Plan(stmt *SelectStmt) (*PhysicalPlan, error) {
	plan := &PhysicalPlan{Limit: stmt.Limit, Distinct: stmt.Distinct}

	leftScan, err := e.makeScan(stmt.From)
	if err != nil {
		return nil, err
	}
	plan.Scan = leftScan
	fullInput := leftScan.schema

	// Join resolution (key splitting only; binding happens after pruning).
	if stmt.Join != nil {
		rightScan, err := e.makeScan(stmt.Join.Right)
		if err != nil {
			return nil, err
		}
		leftKeys, rightKeys, err := splitJoinKeys(stmt.Join.On, leftScan, rightScan)
		if err != nil {
			return nil, err
		}
		plan.Join = &JoinNode{Build: rightScan, LeftKeys: leftKeys, RightKeys: rightKeys}
		fullInput = RowSchema{Cols: append(append([]RowCol{}, leftScan.schema.Cols...), rightScan.schema.Cols...)}
	}

	// Expand SELECT * against the full input schema.
	items := make([]SelectItem, 0, len(stmt.Items))
	for _, it := range stmt.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, c := range fullInput.Cols {
			items = append(items, SelectItem{
				Expr:  &ColumnRef{Qualifier: c.Qualifier, Name: c.Name},
				Alias: c.Name,
			})
		}
	}
	plan.Items = items

	// Restrict scans to referenced columns (projection pushdown), then make
	// every get_json_object call a column of its scan; every expression binds
	// against the resulting schema below.
	e.pruneScanColumns(plan, stmt)
	plan.extractCalls(stmt)
	inputSchema := plan.InputSchema

	// Join keys bind against each side's pruned schema.
	if plan.Join != nil {
		for _, k := range plan.Join.LeftKeys {
			if err := Bind(k, plan.Scan.schema); err != nil {
				return nil, err
			}
		}
		for _, k := range plan.Join.RightKeys {
			if err := Bind(k, plan.Join.Build.schema); err != nil {
				return nil, err
			}
		}
	}

	// Aggregate extraction.
	hasAgg := len(stmt.GroupBy) > 0
	for _, it := range plan.Items {
		if exprHasAggregate(it.Expr) {
			hasAgg = true
		}
	}
	for _, o := range stmt.OrderBy {
		if exprHasAggregate(o.Expr) {
			hasAgg = true
		}
	}
	if stmt.Having != nil {
		hasAgg = true
	}
	plan.aggregate = hasAgg

	// WHERE binding + SARG pushdown (storage columns only).
	if stmt.Where != nil {
		if err := Bind(stmt.Where, inputSchema); err != nil {
			return nil, err
		}
		plan.Filter = stmt.Where
		plan.Scan.SARG = extractSARG(stmt.Where, plan.Scan)
	}

	if hasAgg {
		if err := e.planAggregate(plan, stmt); err != nil {
			return nil, err
		}
	} else {
		for _, it := range plan.Items {
			if err := Bind(it.Expr, inputSchema); err != nil {
				return nil, err
			}
		}
		plan.OrderBy = append([]OrderItem(nil), stmt.OrderBy...)
		for i := range plan.OrderBy {
			if err := bindOrderItem(&plan.OrderBy[i], plan, inputSchema); err != nil {
				return nil, err
			}
		}
	}

	// Output schema from item names.
	plan.OutputSchema.Cols = make([]RowCol, 0, len(plan.Items))
	for _, it := range plan.Items {
		plan.OutputSchema.Cols = append(plan.OutputSchema.Cols, RowCol{
			Name: it.OutputName(), Type: datum.TypeString,
		})
	}
	return plan, nil
}

// makeScan resolves a table reference into a scan node covering all its
// columns (pruned later).
func (e *Engine) makeScan(ref TableRef) (*ScanNode, error) {
	db := ref.DB
	if db == "" {
		db = e.defaultDB
	}
	info, err := e.wh.Table(db, ref.Table)
	if err != nil {
		return nil, err
	}
	scan := &ScanNode{DB: db, Table: ref.Table, Binding: ref.Binding()}
	scan.Columns = make([]string, 0, len(info.Schema.Columns))
	scan.schema.Cols = make([]RowCol, 0, len(info.Schema.Columns))
	for _, c := range info.Schema.Columns {
		scan.Columns = append(scan.Columns, c.Name)
		scan.schema.Cols = append(scan.schema.Cols, RowCol{
			Qualifier: scan.Binding, Name: c.Name, Type: c.Type,
		})
	}
	return scan, nil
}

// pruneScanColumns narrows each scan to the columns actually referenced by
// the statement — the projection pushdown that Maxson's modified plan later
// tightens further by dropping fully cached JSON columns.
func (e *Engine) pruneScanColumns(plan *PhysicalPlan, stmt *SelectStmt) {
	used := map[string]bool{} // "binding\x00name"
	mark := func(expr Expr) {
		Walk(expr, func(n Expr) {
			if c, ok := n.(*ColumnRef); ok {
				used[strings.ToLower(c.Qualifier)+"\x00"+strings.ToLower(c.Name)] = true
			}
		})
	}
	for _, it := range plan.Items {
		mark(it.Expr)
	}
	if stmt.Where != nil {
		mark(stmt.Where)
	}
	for _, g := range stmt.GroupBy {
		mark(g)
	}
	for _, o := range stmt.OrderBy {
		mark(o.Expr)
	}
	if stmt.Having != nil {
		mark(stmt.Having)
	}
	if plan.Join != nil {
		for _, k := range plan.Join.LeftKeys {
			mark(k)
		}
		for _, k := range plan.Join.RightKeys {
			mark(k)
		}
	}
	prune := func(scan *ScanNode, other *ScanNode) {
		// Filtered in place: makeScan built both slices for this scan.
		cols, schemaCols := scan.Columns[:0], scan.schema.Cols[:0]
		for i, name := range scan.Columns {
			key := strings.ToLower(scan.Binding) + "\x00" + strings.ToLower(name)
			bare := "\x00" + strings.ToLower(name)
			// An unqualified reference keeps the column unless the other
			// table also has it (then it would have been ambiguous anyway).
			keep := used[key] || used[bare] && (other == nil || !otherHas(other, name))
			if keep {
				cols = append(cols, name)
				schemaCols = append(schemaCols, scan.schema.Cols[i])
			}
		}
		// A scan must output at least one column to drive row counts.
		if len(cols) == 0 && len(scan.Columns) > 0 {
			cols = scan.Columns[:1]
			schemaCols = scan.schema.Cols[:1]
		}
		scan.Columns = cols
		scan.schema = RowSchema{Cols: schemaCols}
	}
	var right *ScanNode
	if plan.Join != nil {
		right = plan.Join.Build
	}
	prune(plan.Scan, right)
	if plan.Join != nil {
		prune(plan.Join.Build, plan.Scan)
	}
}

// extractCalls is the plan-time half of the paper's Algorithm 1: every
// get_json_object call of the statement, aggregate arguments included,
// becomes an ExtractRef, and each distinct (document column, path) pair a
// scan's calls read becomes one entry of its Extract list and one column of
// its schema, after the columns it reads. A scan keeps the document columns
// its calls read among its Columns. The input schema is the scans' schemas,
// probe side first.
func (plan *PhysicalPlan) extractCalls(stmt *SelectStmt) {
	scans := []*ScanNode{plan.Scan}
	if plan.Join != nil {
		scans = append(scans, plan.Join.Build)
	}
	var calls func(e Expr) Expr
	calls = func(e Expr) Expr {
		if e == nil {
			return nil
		}
		return Rewrite(e, func(n Expr) Expr {
			switch n := n.(type) {
			case *Aggregate:
				n.Arg = calls(n.Arg)
			case *JSONPathExpr:
				for _, scan := range scans {
					q := n.Column.Qualifier
					if (q == "" || strings.EqualFold(q, scan.Binding)) && otherHas(scan, n.Column.Name) {
						scan.extract(Extraction{Column: storageName(scan, n.Column.Name), Path: n.Path})
					}
				}
				return &ExtractRef{Call: n}
			}
			return n
		})
	}
	for i := range plan.Items {
		plan.Items[i].Expr = calls(plan.Items[i].Expr)
	}
	stmt.Where = calls(stmt.Where)
	for i := range stmt.GroupBy {
		stmt.GroupBy[i] = calls(stmt.GroupBy[i])
	}
	stmt.Having = calls(stmt.Having)
	for i := range stmt.OrderBy {
		stmt.OrderBy[i].Expr = calls(stmt.OrderBy[i].Expr)
	}
	plan.InputSchema = plan.Scan.schema
	if plan.Join != nil {
		for i := range plan.Join.LeftKeys {
			plan.Join.LeftKeys[i] = calls(plan.Join.LeftKeys[i])
		}
		for i := range plan.Join.RightKeys {
			plan.Join.RightKeys[i] = calls(plan.Join.RightKeys[i])
		}
		plan.InputSchema = RowSchema{Cols: append(slices.Clip(plan.Scan.schema.Cols), plan.Join.Build.schema.Cols...)}
	}
}

// extract adds x to the scan's Extract list and its column to the scan's
// schema, unless the scan already extracts x's path from x's column.
func (s *ScanNode) extract(x Extraction) {
	canon := x.Path.Canonical()
	for _, c := range s.schema.Cols {
		if c.Path == canon && strings.EqualFold(c.Name, x.Column) {
			return
		}
	}
	s.Extract = append(s.Extract, x)
	s.schema.Cols = append(s.schema.Cols, RowCol{
		Qualifier: s.Binding, Name: x.Column, Type: datum.TypeString, Path: canon, Extracted: true,
	})
}

func otherHas(scan *ScanNode, name string) bool {
	for _, c := range scan.Columns {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// splitJoinKeys decomposes an ON condition into equality key pairs. Only
// conjunctions of left=right equalities are supported (hash join).
func splitJoinKeys(on Expr, left, right *ScanNode) (leftKeys, rightKeys []Expr, err error) {
	var conjuncts []Expr
	var flatten func(e Expr)
	flatten = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == OpAnd {
			flatten(b.Left)
			flatten(b.Right)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	flatten(on)
	for _, c := range conjuncts {
		b, ok := c.(*Binary)
		if !ok || b.Op != OpEq {
			return nil, nil, fmt.Errorf("sql: join ON must be equality conjunction, got %s", c.String())
		}
		lSide, lOK := sideOf(b.Left, left, right)
		rSide, rOK := sideOf(b.Right, left, right)
		if !lOK || !rOK || lSide == rSide {
			return nil, nil, fmt.Errorf("sql: join key %s must compare one column from each table", c.String())
		}
		if lSide == 0 {
			leftKeys = append(leftKeys, b.Left)
			rightKeys = append(rightKeys, b.Right)
		} else {
			leftKeys = append(leftKeys, b.Right)
			rightKeys = append(rightKeys, b.Left)
		}
	}
	return leftKeys, rightKeys, nil
}

// sideOf reports which scan the expression's columns belong to: 0 left,
// 1 right. Mixed or no columns reports !ok.
func sideOf(e Expr, left, right *ScanNode) (side int, ok bool) {
	side = -1
	ok = true
	Walk(e, func(n Expr) {
		c, isCol := n.(*ColumnRef)
		if !isCol {
			return
		}
		var s int
		switch {
		case strings.EqualFold(c.Qualifier, left.Binding):
			s = 0
		case strings.EqualFold(c.Qualifier, right.Binding):
			s = 1
		case c.Qualifier == "":
			if _, err := left.schema.Index("", c.Name); err == nil {
				s = 0
			} else {
				s = 1
			}
		default:
			ok = false
			return
		}
		if side >= 0 && side != s {
			ok = false
		}
		side = s
	})
	if side < 0 {
		ok = false
	}
	return side, ok
}

// extractSARG converts storage-column-vs-literal conjuncts of a bound WHERE
// clause into an ORC search argument for the scan. Predicates over
// expressions (like get_json_object) are left to the filter; Maxson's plan
// modifier later converts cached-path predicates into cache-table SARGs.
func extractSARG(where Expr, scan *ScanNode) *orc.SARG {
	var preds []orc.Predicate
	var visit func(e Expr)
	visit = func(e Expr) {
		b, ok := e.(*Binary)
		if !ok {
			return
		}
		if b.Op == OpAnd {
			visit(b.Left)
			visit(b.Right)
			return
		}
		col, lit, swapped := colLitPair(b.Left, b.Right)
		bop := b.Op
		if swapped {
			bop = bop.Mirror()
		}
		op, ok := sargOp(bop)
		if !ok || col == nil {
			return
		}
		if !strings.EqualFold(col.Qualifier, scan.Binding) && col.Qualifier != "" {
			return
		}
		if !otherHas(scan, col.Name) {
			return
		}
		preds = append(preds, orc.Predicate{Column: storageName(scan, col.Name), Op: op, Value: lit.Value})
	}
	visit(where)
	return orc.NewSARG(preds...)
}

func storageName(scan *ScanNode, name string) string {
	for _, c := range scan.Columns {
		if strings.EqualFold(c, name) {
			return c
		}
	}
	return name
}

func colLitPair(l, r Expr) (col *ColumnRef, lit *Literal, swapped bool) {
	if c, ok := l.(*ColumnRef); ok {
		if v, ok := r.(*Literal); ok {
			return c, v, false
		}
	}
	if c, ok := r.(*ColumnRef); ok {
		if v, ok := l.(*Literal); ok {
			return c, v, true
		}
	}
	return nil, nil, false
}

func sargOp(op BinaryOp) (orc.CompareOp, bool) {
	switch op {
	case OpEq:
		return orc.OpEQ, true
	case OpNe:
		return orc.OpNE, true
	case OpLt:
		return orc.OpLT, true
	case OpLe:
		return orc.OpLE, true
	case OpGt:
		return orc.OpGT, true
	case OpGe:
		return orc.OpGE, true
	}
	return 0, false
}

func exprHasAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) {
		if _, ok := n.(*Aggregate); ok {
			found = true
		}
	})
	return found
}

// planAggregate binds group keys against the input schema, collects the
// aggregates from projections and ORDER BY, and rebinds post-aggregation
// expressions against the [group keys..., agg values...] intermediate row.
func (e *Engine) planAggregate(plan *PhysicalPlan, stmt *SelectStmt) error {
	plan.GroupBy = stmt.GroupBy
	for _, g := range plan.GroupBy {
		if err := Bind(g, plan.InputSchema); err != nil {
			return err
		}
	}
	// Collect aggregates (dedup by rendered text).
	seen := map[string]int{}
	collect := func(expr Expr) error {
		var firstErr error
		Walk(expr, func(n Expr) {
			a, ok := n.(*Aggregate)
			if !ok {
				return
			}
			key := a.String()
			if idx, dup := seen[key]; dup {
				a.aggIndex = len(plan.GroupBy) + idx
				return
			}
			if a.Arg != nil {
				if err := Bind(a.Arg, plan.InputSchema); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			idx := len(plan.Aggs)
			seen[key] = idx
			a.aggIndex = len(plan.GroupBy) + idx
			plan.Aggs = append(plan.Aggs, a)
		})
		return firstErr
	}
	for _, it := range plan.Items {
		if err := collect(it.Expr); err != nil {
			return err
		}
	}
	for _, o := range stmt.OrderBy {
		if err := collect(o.Expr); err != nil {
			return err
		}
	}

	// Post-aggregation schema: group keys by their source text (and bare
	// column name when the key is a plain column), then aggregate slots.
	postSchema := RowSchema{Cols: make([]RowCol, 0, len(plan.GroupBy)+len(plan.Aggs))}
	for _, g := range plan.GroupBy {
		col := RowCol{Name: g.String(), Type: datum.TypeString}
		if c, ok := g.(*ColumnRef); ok {
			col.Name = c.Name
			col.Qualifier = c.Qualifier
		}
		postSchema.Cols = append(postSchema.Cols, col)
	}
	for _, a := range plan.Aggs {
		postSchema.Cols = append(postSchema.Cols, RowCol{Name: a.String(), Type: datum.TypeFloat64})
	}

	// Rewrite post-aggregation expressions: group-key occurrences (matched
	// by source text, or by bare column name for plain column keys) become
	// keyRefs into the intermediate row; Aggregates keep their aggIndex.
	rewritePost := func(expr Expr) (Expr, error) {
		out := Rewrite(expr, func(n Expr) Expr {
			if _, isAgg := n.(*Aggregate); isAgg {
				return n
			}
			if idx, err := postSchema.Index("", n.String()); err == nil {
				return &keyRef{name: n.String(), index: idx}
			}
			if c, ok := n.(*ColumnRef); ok {
				if idx, err := postSchema.Index(c.Qualifier, c.Name); err == nil {
					return &keyRef{name: c.String(), index: idx}
				}
			}
			return n
		})
		if bad := unresolvedPostRef(out); bad != nil {
			return nil, fmt.Errorf("sql: %q must appear in GROUP BY or inside an aggregate", bad.String())
		}
		return out, nil
	}
	for i := range plan.Items {
		out, err := rewritePost(plan.Items[i].Expr)
		if err != nil {
			return err
		}
		plan.Items[i].Expr = out
	}
	plan.OrderBy = append([]OrderItem(nil), stmt.OrderBy...)
	for i := range plan.OrderBy {
		// An ORDER BY alias refers to a projection item.
		if target := aliasTarget(plan.OrderBy[i].Expr, plan.Items); target != nil {
			plan.OrderBy[i].Expr = target
			continue
		}
		out, err := rewritePost(plan.OrderBy[i].Expr)
		if err != nil {
			return err
		}
		plan.OrderBy[i].Expr = out
	}
	if stmt.Having != nil {
		// HAVING aggregates were collected above; rewrite group-key refs.
		if err := collect(stmt.Having); err != nil {
			return err
		}
		out, err := rewritePost(stmt.Having)
		if err != nil {
			return err
		}
		plan.Having = out
	}
	for _, a := range plan.Aggs {
		if a.Func == AggMin || a.Func == AggMax {
			a.valSlot = plan.aggVals
			plan.aggVals++
		}
	}
	return nil
}

// unresolvedPostRef finds the first column or get_json_object read outside any
// aggregate in a post-aggregation expression — those must have been
// rewritten to keyRefs, so a survivor is an error. Aggregate subtrees are
// skipped because their arguments bind against the pre-aggregation schema.
func unresolvedPostRef(e Expr) Expr {
	switch n := e.(type) {
	case *Aggregate:
		return nil
	case *ColumnRef, *ExtractRef:
		return n
	case *Binary:
		if bad := unresolvedPostRef(n.Left); bad != nil {
			return bad
		}
		return unresolvedPostRef(n.Right)
	case *Not:
		return unresolvedPostRef(n.Inner)
	case *IsNull:
		return unresolvedPostRef(n.Inner)
	case *Like:
		return unresolvedPostRef(n.Inner)
	case *FuncCall:
		for _, a := range n.Args {
			if bad := unresolvedPostRef(a); bad != nil {
				return bad
			}
		}
	}
	return nil
}

// aliasTarget resolves a bare column reference against projection aliases,
// returning the (already bound/rewritten) projected expression.
func aliasTarget(e Expr, items []SelectItem) Expr {
	c, ok := e.(*ColumnRef)
	if !ok || c.Qualifier != "" {
		return nil
	}
	for _, it := range items {
		if strings.EqualFold(it.OutputName(), c.Name) {
			return it.Expr
		}
	}
	return nil
}

func bindOrderItem(o *OrderItem, plan *PhysicalPlan, schema RowSchema) error {
	if target := aliasTarget(o.Expr, plan.Items); target != nil {
		o.Expr = target
		return nil
	}
	return Bind(o.Expr, schema)
}
