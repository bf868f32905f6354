package core

import (
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// Planner is the MaxsonParser: the engine's planner makes every
// get_json_object call a column its scan extracts (ScanNode.Extract), and
// this modifier moves each extraction a cached JSONPath serves onto a column
// read from the cache table. The scan becomes a Value Combiner over paired
// readers, the raw JSON column is dropped from the primary read set when no
// extraction or other expression still reads it, and predicates over cached
// paths are pushed down to the cache table (paper Algorithm 1, §IV-D/F). No
// expression is rewritten: a call reads its column whichever reader fills
// it. Which splits the cache serves is not the planner's decision: the
// combiner asks the manifest per split, by raw part version.
type Planner struct {
	wh       *warehouse.Warehouse
	registry *Registry
	// Pushdown toggles the §IV-F optimization (on by default; the Fig 12
	// ablation turns it off).
	Pushdown bool
	// KeepJSONColumns disables dropping fully cached JSON columns from the
	// primary read set (the Fig 9 optimization) — ablation knob only.
	KeepJSONColumns bool
	// obsc is handed to every combined scan factory: the Value Combiner's
	// open-mode and hit/miss counters, resolved here once so that building a
	// plan makes no registry lookup.
	obsc *combinerObs
	// backend is the parser backend of the engine the planner is installed
	// on: a combined scan extracts what the cache does not serve through it.
	backend sqlengine.ParserBackend
}

// NewPlanner wires a plan modifier whose combined scans count into reg (a
// private registry when reg is nil).
func NewPlanner(wh *warehouse.Warehouse, registry *Registry, reg *obs.Registry) *Planner {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Planner{wh: wh, registry: registry, Pushdown: true, obsc: newCombinerObs(reg)}
}

// Install registers the planner as the engine's plan modifier.
func (p *Planner) Install(e *sqlengine.Engine) {
	e.PlanModifier = p.Modify
	p.backend = e.Backend()
}

// Modify rewrites the plan in place. It returns the number of call sites
// the cache serves, which the engine adds to its plan-time accounting (the
// Fig 13 overhead).
func (p *Planner) Modify(plan *sqlengine.PhysicalPlan, stmt *sqlengine.SelectStmt) (int64, error) {
	gen := p.registry.snap.Load() // one generation for the whole plan
	extra := p.modifyScan(plan, plan.Scan, gen)
	if plan.Join != nil {
		extra += p.modifyScan(plan, plan.Join.Build, gen)
	}
	if extra == 0 {
		return 0, nil // nothing cached; untouched plan
	}

	// Rebuild the input schema and re-bind every expression that reads
	// scan output.
	if plan.Join != nil {
		cols := append([]sqlengine.RowCol{}, plan.Scan.Schema().Cols...)
		cols = append(cols, plan.Join.Build.Schema().Cols...)
		plan.InputSchema = sqlengine.RowSchema{Cols: cols}
	} else {
		plan.InputSchema = plan.Scan.Schema()
	}
	if err := plan.Rebind(); err != nil {
		return extra, err
	}
	return extra, nil
}

// modifyScan applies Algorithm 1 to one scan node against gen. It returns
// the number of call sites of the scan the cache serves (0 = scan
// untouched).
func (p *Planner) modifyScan(plan *sqlengine.PhysicalPlan, scan *sqlengine.ScanNode, gen *snapshot) int64 {
	// MatchExpr over the scan's extractions: the cached ones become cache
	// columns (lines 22-23), the rest stay extracted.
	schema := scan.Schema().Cols
	first := len(schema) - len(scan.Extract) // the extracted columns' start
	var hits []cacheHit                      // sorted by cache column below
	var extract []sqlengine.Extraction
	var extracted []sqlengine.RowCol
	for i, x := range scan.Extract {
		col := schema[first+i]
		entry := gen.entries[pathkey.Key{DB: scan.DB, Table: scan.Table, Column: x.Column, Path: col.Path}]
		if entry == nil {
			// A quarantined table has no entries: the query plans against
			// raw data.
			extract, extracted = append(extract, x), append(extracted, col)
			continue
		}
		col.Extracted = false
		hits = append(hits, cacheHit{entry, x, col})
	}
	if len(hits) == 0 {
		return 0
	}

	// Count the call sites the cache now serves: each is one MatchExpr hit.
	served := int64(0)
	sqlengine.VisitPlanExprs(plan, func(n sqlengine.Expr) {
		if r, ok := n.(*sqlengine.ExtractRef); ok && onScan(r, scan) && servedBy(r, hits) != "" {
			served++
		}
	})

	// Cache columns read from the cache table, deterministic order. The
	// scan extracts each (column, path) once, so each names its own column.
	slices.SortFunc(hits, func(a, b cacheHit) int { return strings.Compare(a.entry.CacheColumn, b.entry.CacheColumn) })
	cacheCols := make([]string, len(hits))
	for i, h := range hits {
		cacheCols[i] = h.entry.CacheColumn
	}

	// The raw JSON columns nothing reads any more can be dropped from the
	// primary read set (Fig 9: json_column0 removed). A JSON column survives
	// if an expression references it or an extraction still reads it.
	stillUsed := map[string]bool{}
	sqlengine.VisitPlanExprs(plan, func(n sqlengine.Expr) {
		if c, ok := n.(*sqlengine.ColumnRef); ok {
			if c.Qualifier == "" || strings.EqualFold(c.Qualifier, scan.Binding) {
				stillUsed[strings.ToLower(c.Name)] = true
			}
		}
	})
	for _, x := range extract {
		stillUsed[strings.ToLower(x.Column)] = true
	}

	var primaryCols []string
	var schemaCols []sqlengine.RowCol
	for i, name := range scan.Columns {
		if stillUsed[strings.ToLower(name)] || p.KeepJSONColumns {
			primaryCols = append(primaryCols, name)
			schemaCols = append(schemaCols, schema[i])
		}
	}
	for _, h := range hits {
		schemaCols = append(schemaCols, h.col)
	}
	schemaCols = append(schemaCols, extracted...)

	// Predicate pushdown (§IV-F): conjuncts of the WHERE clause comparing a
	// cached call with a literal become SARGs on the cache table.
	var cacheSARG *orc.SARG
	if p.Pushdown && plan.Filter != nil {
		cacheSARG = extractCacheSARG(plan.Filter, scan, hits)
	}

	// The fallback extraction lets the combiner compute cache-column values
	// for raw part files the manifest does not serve: appended, rewritten or
	// recreated since the cache was populated.
	fallbacks := make([]sqlengine.Extraction, len(hits))
	for i, h := range hits {
		fallbacks[i] = h.x
	}

	factory := NewCombinedScanFactory(
		p.wh, scan.DB, scan.Table,
		primaryCols, scan.SARG,
		hits[0].entry.Manifest, cacheCols, cacheSARG,
		fallbacks,
		p.Pushdown,
		sqlengine.RowSchema{Cols: schemaCols},
		p.obsc,
	)
	factory.SetRegistry(p.registry)
	factory.extract, factory.backend = extract, p.backend
	scan.Factory = factory
	scan.Columns = primaryCols
	scan.Extract = extract
	scan.SetSchema(sqlengine.RowSchema{Cols: schemaCols})
	return served
}

// cacheHit is a cache entry that serves extraction x of a scan, and x's
// schema column, now filled from the cache column.
type cacheHit struct {
	entry *CacheEntry
	x     sqlengine.Extraction
	col   sqlengine.RowCol
}

// onScan reports whether call site r reads scan: its document column is
// unqualified or qualified by the scan's binding.
func onScan(r *sqlengine.ExtractRef, scan *sqlengine.ScanNode) bool {
	q := r.Call.Column.Qualifier
	return q == "" || strings.EqualFold(q, scan.Binding)
}

// servedBy returns the cache column among hits that serves call site r,
// "" for none.
func servedBy(r *sqlengine.ExtractRef, hits []cacheHit) string {
	for _, h := range hits {
		if h.col.Path == r.Call.Path.Canonical() && strings.EqualFold(h.col.Name, r.Call.Column.Name) {
			return h.entry.CacheColumn
		}
	}
	return ""
}

// extractCacheSARG converts AND-conjuncts of the form
// cached-call-compare-literal over scan into cache-table predicates.
func extractCacheSARG(filter sqlengine.Expr, scan *sqlengine.ScanNode, hits []cacheHit) *orc.SARG {
	var preds []orc.Predicate
	var visit func(e sqlengine.Expr)
	visit = func(e sqlengine.Expr) {
		b, ok := e.(*sqlengine.Binary)
		if !ok {
			return
		}
		if b.Op == sqlengine.OpAnd {
			visit(b.Left)
			visit(b.Right)
			return
		}
		ref, lit, swapped := callLitPair(b.Left, b.Right)
		bop := b.Op
		if swapped {
			bop = bop.Mirror()
		}
		op, ok := sargOpOf(bop)
		if !ok || ref == nil || !onScan(ref, scan) {
			return
		}
		if col := servedBy(ref, hits); col != "" {
			preds = append(preds, orc.Predicate{Column: col, Op: op, Value: lit.Value})
		}
	}
	visit(filter)
	return orc.NewSARG(preds...)
}

func callLitPair(l, r sqlengine.Expr) (*sqlengine.ExtractRef, *sqlengine.Literal, bool) {
	if ref, ok := l.(*sqlengine.ExtractRef); ok {
		if lit, ok := r.(*sqlengine.Literal); ok {
			return ref, lit, false
		}
	}
	if ref, ok := r.(*sqlengine.ExtractRef); ok {
		if lit, ok := l.(*sqlengine.Literal); ok {
			return ref, lit, true
		}
	}
	return nil, nil, false
}

func sargOpOf(op sqlengine.BinaryOp) (orc.CompareOp, bool) {
	switch op {
	case sqlengine.OpEq:
		return orc.OpEQ, true
	case sqlengine.OpNe:
		return orc.OpNE, true
	case sqlengine.OpLt:
		return orc.OpLT, true
	case sqlengine.OpLe:
		return orc.OpLE, true
	case sqlengine.OpGt:
		return orc.OpGT, true
	case sqlengine.OpGe:
		return orc.OpGE, true
	}
	return 0, false
}
