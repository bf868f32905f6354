package core

import (
	"sort"
	"strings"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// Planner is the MaxsonParser: it rewrites a compiled physical plan so that
// every get_json_object over a cached JSONPath becomes a placeholder read
// from the cache table, the scan becomes a Value Combiner over paired
// readers, the raw JSON column is dropped from the primary read set when
// all its paths are cached, and predicates over cached paths are pushed
// down to the cache table (paper Algorithm 1, §IV-D/F). Which splits the
// cache serves is not the planner's decision: the combiner asks the
// manifest per split, by raw part version.
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
}

// Modify rewrites the plan in place. It returns the number of extra
// expression nodes visited, which the engine adds to its plan-time
// accounting (the Fig 13 overhead).
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
// the number of replaced expressions (0 = scan untouched).
func (p *Planner) modifyScan(plan *sqlengine.PhysicalPlan, scan *sqlengine.ScanNode, gen *snapshot) int64 {
	// Algorithm 1's MatchExpr over every expression tree: find cached
	// get_json_object calls bound to this scan.
	type hit struct {
		entry *CacheEntry
		expr  *sqlengine.JSONPathExpr
	}
	var hits []hit
	hitCols := map[string]*CacheEntry{} // cache column -> entry
	replaced := int64(0)

	match := func(n sqlengine.Expr) {
		jp, ok := n.(*sqlengine.JSONPathExpr)
		if !ok {
			return
		}
		if jp.Column.Qualifier != "" && !strings.EqualFold(jp.Column.Qualifier, scan.Binding) {
			return
		}
		key := pathkey.Key{DB: scan.DB, Table: scan.Table, Column: jp.Column.Name, Path: jp.Path.Canonical()}
		// A quarantined table has no entries: the query plans against raw
		// data.
		entry := gen.entries[key]
		if entry == nil {
			return
		}
		hits = append(hits, hit{entry: entry, expr: jp})
		hitCols[entry.CacheColumn] = entry
	}
	sqlengine.VisitPlanExprs(plan, match)
	if len(hits) == 0 {
		return 0
	}

	// Replace each hit expression with a CachePlaceholder (lines 22-23).
	replace := func(e sqlengine.Expr) sqlengine.Expr {
		return sqlengine.Rewrite(e, func(n sqlengine.Expr) sqlengine.Expr {
			jp, ok := n.(*sqlengine.JSONPathExpr)
			if !ok {
				return n
			}
			for _, h := range hits {
				if h.expr == jp {
					replaced++
					return &sqlengine.CachePlaceholder{
						OutputName:   h.entry.CacheColumn,
						SourceColumn: jp.Column.Name,
						Path:         jp.Path,
					}
				}
			}
			return n
		})
	}
	sqlengine.RewritePlanExprs(plan, replace)

	// Cache columns read from the cache table, deterministic order.
	var cacheCols []string
	for col := range hitCols {
		cacheCols = append(cacheCols, col)
	}
	sort.Strings(cacheCols)

	// The raw JSON columns whose every use was replaced can be dropped from
	// the primary read set (Fig 9: json_column0 removed). A JSON column
	// survives if any expression still references it.
	stillUsed := map[string]bool{}
	collectUsed := func(n sqlengine.Expr) {
		if c, ok := n.(*sqlengine.ColumnRef); ok {
			if c.Qualifier == "" || strings.EqualFold(c.Qualifier, scan.Binding) {
				stillUsed[strings.ToLower(c.Name)] = true
			}
		}
	}
	sqlengine.VisitPlanExprs(plan, collectUsed)

	var primaryCols []string
	var schemaCols []sqlengine.RowCol
	for i, name := range scan.Columns {
		if stillUsed[strings.ToLower(name)] || p.KeepJSONColumns {
			primaryCols = append(primaryCols, name)
			schemaCols = append(schemaCols, scan.Schema().Cols[i])
		}
	}
	for _, col := range cacheCols {
		schemaCols = append(schemaCols, sqlengine.RowCol{
			Qualifier: scan.Binding, Name: col, Type: datum.TypeString,
		})
	}

	// Predicate pushdown (§IV-F): conjuncts of the WHERE clause comparing a
	// cached placeholder with a literal become SARGs on the cache table.
	var cacheSARG *orc.SARG
	if p.Pushdown && plan.Filter != nil {
		cacheSARG = extractCacheSARG(plan.Filter, hitCols)
	}

	// The fallback extraction lets the combiner compute cache-column values
	// for raw part files the manifest does not serve: appended, rewritten or
	// recreated since the cache was populated.
	fallbacks := make([]sqlengine.Extraction, len(cacheCols))
	for i, col := range cacheCols {
		entry := hitCols[col]
		path, err := jsonpath.Compile(entry.Key.Path)
		if err != nil {
			return 0
		}
		fallbacks[i] = sqlengine.Extraction{Column: entry.Key.Column, Path: path}
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
	scan.Factory = factory
	scan.Columns = primaryCols
	scan.SetSchema(sqlengine.RowSchema{Cols: schemaCols})
	return replaced
}

// extractCacheSARG converts AND-conjuncts of the form
// placeholder-compare-literal into cache-table predicates.
func extractCacheSARG(filter sqlengine.Expr, hitCols map[string]*CacheEntry) *orc.SARG {
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
		ph, lit, swapped := placeholderLitPair(b.Left, b.Right)
		bop := b.Op
		if swapped {
			bop = bop.Mirror()
		}
		op, ok := sargOpOf(bop)
		if !ok || ph == nil {
			return
		}
		if _, cached := hitCols[ph.OutputName]; !cached {
			return
		}
		preds = append(preds, orc.Predicate{Column: ph.OutputName, Op: op, Value: lit.Value})
	}
	visit(filter)
	return orc.NewSARG(preds...)
}

func placeholderLitPair(l, r sqlengine.Expr) (*sqlengine.CachePlaceholder, *sqlengine.Literal, bool) {
	if ph, ok := l.(*sqlengine.CachePlaceholder); ok {
		if lit, ok := r.(*sqlengine.Literal); ok {
			return ph, lit, false
		}
	}
	if ph, ok := r.(*sqlengine.CachePlaceholder); ok {
		if lit, ok := l.(*sqlengine.Literal); ok {
			return ph, lit, true
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
