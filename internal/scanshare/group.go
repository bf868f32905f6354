package scanshare

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/sqlengine"
)

// group is one admission window's worth of compatible queries.
type group struct {
	s      *Scheduler
	e      *sqlengine.Engine
	key    string
	h      *arrivals // holds key's contended bit; guarded by the scheduler mutex
	timer  *time.Timer
	sealed chan struct{}

	// parts is guarded by the scheduler mutex until sealedFlag is set;
	// after that the sealer owns it.
	parts      []*participant
	sealedFlag bool
	launched   bool

	// Producer-side state, written by the producer goroutine before it
	// closes the consumer pipes, read by consumers after the close.
	err error
	pm  *sqlengine.Metrics
	// claimed elects the one consumer that folds pm into its query metrics.
	claimed atomic.Bool
}

// claim folds the producer's metrics into m exactly once across the group.
// Only called at clean end-of-stream, so cancelled or errored queries (whose
// metrics the engine discards) can never swallow the producer's accounting.
func (g *group) claim(m *sqlengine.Metrics) {
	if g.claimed.CompareAndSwap(false, true) {
		g.pm.MergeInto(m)
	}
}

// launch builds the shared pass for the live participants and starts the
// producer. On a group-level build failure before any plan was touched it
// simply returns with g.launched false — everyone runs unshared. Once plans
// are being rewritten, a per-participant failure detaches only that query.
func (g *group) launch(live []*participant) {
	pr := g.build(live)
	if pr == nil {
		return
	}
	var cons []*participant
	for _, p := range live {
		if p.err == nil {
			p.shared = true
			cons = append(cons, p)
		}
	}
	if len(cons) == 0 {
		return
	}
	pr.cons = cons
	g.pm = pr.pm
	g.launched = true
	g.s.c.groups.Inc()
	g.s.c.coalesced.Add(int64(len(cons)))
	go pr.run()
}

// build sets up one pass for the group: the union of every participant's
// paths is compiled per scan column, the producer fills one TypeString column
// per distinct path after everything else it reads, and each participant's
// get_json_object calls are rewritten to placeholder reads of those columns.
// A raw scan's producer is the engine's split reader extracting the union; a
// Unioner's is its union over the participants' factories, which reads their
// own columns between the scan's and the extracted ones. Returns nil when the
// group cannot be built (plans untouched — queries run unshared).
func (g *group) build(live []*participant) *producer {
	scan0 := live[0].plan.Scan
	nCols := len(scan0.Columns)

	calls := make([]*sqlengine.PathCalls, len(live))
	for i, p := range live {
		calls[i] = sqlengine.PlanPathCalls(p.plan)
	}

	// One merged PathSet per scan column, columns in schema order so every
	// participant sees the identical extracted-column layout. at[i][c][j] is
	// the position among the extracted columns serving participant i's j-th
	// path over its calls[i].Cols[c].
	var extract []sqlengine.Extraction
	var extCols []sqlengine.RowCol
	at := make([][][]int, len(live))
	for i, pc := range calls {
		if pc != nil {
			at[i] = make([][]int, len(pc.Cols))
		}
	}
	for colIdx, column := range scan0.Columns {
		sets := make([]*jsonpath.PathSet, len(live))
		where := make([]int, len(live)) // where colIdx sits in calls[i].Cols
		any := false
		for i, pc := range calls {
			where[i] = -1
			if pc == nil {
				continue
			}
			for c, col := range pc.Cols {
				if col.Index == colIdx {
					sets[i], where[i], any = col.Set, c, true
				}
			}
		}
		if !any {
			continue
		}
		merged, remaps, err := jsonpath.Union(sets...)
		if err != nil {
			return nil
		}
		base := len(extCols)
		for k, path := range merged.Paths() {
			extract = append(extract, sqlengine.Extraction{Column: column, Path: path})
			extCols = append(extCols, sqlengine.RowCol{
				Name: sharedColName(colIdx, k),
				Type: datum.TypeString,
			})
		}
		for i, c := range where {
			if c < 0 {
				continue
			}
			at[i][c] = make([]int, len(remaps[i]))
			for j, slot := range remaps[i] {
				at[i][c][j] = base + slot
			}
		}
	}

	// The producer reads the pristine scan — same columns, same SARG and
	// share key (identical across the group by fingerprint), no per-query
	// prefilters, which run post-demux in each consumer's pipeline.
	var factory sqlengine.ScanSourceFactory
	if u, ok := scan0.Factory.(Unioner); ok {
		fs := make([]sqlengine.ScanSourceFactory, len(live))
		for i, p := range live {
			fs[i] = p.plan.Scan.Factory
		}
		factory = u.Union(fs, extract, extCols)
	} else {
		prodScan := &sqlengine.ScanNode{
			DB:      scan0.DB,
			Table:   scan0.Table,
			Binding: scan0.Binding,
			Columns: append([]string(nil), scan0.Columns...),
			SARG:    scan0.SARG,
			Extract: extract,
		}
		prodScan.SetSchema(sqlengine.RowSchema{Cols: append(append([]sqlengine.RowCol(nil), scan0.Schema().Cols...), extCols...)})
		factory = sqlengine.NewSplitReader(g.e.Warehouse(), prodScan)
	}
	prod, err := factory.Schema()
	if err != nil {
		return nil
	}

	// Rewire every participant: its own scan columns, then the producer's
	// rest. From here on failures are per-query: a participant whose rewrite
	// fails detaches and errors alone. One whose schema already is the
	// producer's layout keeps its plan as it is.
	for i, p := range live {
		scan := p.plan.Scan
		schema := scan.Schema()
		if len(schema.Cols) != len(prod.Cols) {
			schema = sqlengine.RowSchema{Cols: append(append([]sqlengine.RowCol(nil), schema.Cols[:nCols]...), prod.Cols[nCols:]...)}
			pc, target, first := calls[i], at[i], len(prod.Cols)-len(extCols)
			sqlengine.RewritePlanExprs(p.plan, func(e sqlengine.Expr) sqlengine.Expr {
				return sqlengine.Rewrite(e, func(e sqlengine.Expr) sqlengine.Expr {
					jp, ok := e.(*sqlengine.JSONPathExpr)
					if !ok {
						return e
					}
					slot, ok := pc.Slot(jp)
					if !ok || target[slot.Col] == nil {
						return e
					}
					return &sqlengine.CachePlaceholder{
						OutputName:   schema.Cols[first+target[slot.Col][slot.Path]].Name,
						SourceColumn: jp.Column.Name,
						Path:         jp.Path,
					}
				})
			})
			scan.SetSchema(schema)
			p.plan.InputSchema = schema
			if err := p.plan.Rebind(); err != nil {
				p.err = err
			}
		}
		p.pipe = sqlengine.NewBatchPipe(demuxDepth)
		scan.Factory = &consumerFactory{p: p}
	}

	return &producer{
		g:       g,
		e:       g.e,
		factory: factory,
		pm:      &sqlengine.Metrics{},
	}
}

// participant is one query's membership in a group. It doubles as the
// SharedScanHandle the engine releases when the query finishes.
type participant struct {
	plan *sqlengine.PhysicalPlan
	qctx context.Context
	g    *group

	// pipe carries this query's copy of the shared pass, producer→consumer.
	// pipe, shared and err are written by the sealer before g.sealed closes.
	pipe   *sqlengine.BatchPipe
	shared bool
	err    error
}

// Release implements sqlengine.SharedScanHandle: the engine calls it once
// when the query completes, however it ended.
func (p *participant) Release() { p.pipe.Abandon() }
