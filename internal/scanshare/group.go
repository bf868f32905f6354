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
	scan0 := live[0].plan.Scan
	var pr *producer
	if scan0.Factory != nil {
		pr = g.buildBroadcast(live)
	} else {
		pr = g.buildMerged(live)
	}
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

// buildBroadcast sets up pure IO sharing over a fingerprinted factory
// (Maxson's combined cache+raw reader): no plan rewrite, the producer runs
// one factory's splits and broadcasts every row batch. Cache quarantine and
// ErrCacheDegraded propagate to every consumer, which then re-plan
// independently exactly as unshared queries would.
func (g *group) buildBroadcast(live []*participant) *producer {
	origFactory := live[0].plan.Scan.Factory
	for _, p := range live {
		p.pipe = sqlengine.NewBatchPipe(demuxDepth)
		p.plan.Scan.Factory = &consumerFactory{p: p, schema: p.plan.Scan.Schema()}
	}
	return &producer{
		g:       g,
		e:       g.e,
		factory: origFactory,
		pm:      &sqlengine.Metrics{},
	}
}

// buildMerged sets up merged-extraction sharing over a plain raw scan: the
// union of every participant's paths is compiled per storage column, the
// producer appends one TypeString column per distinct path to the scan
// output, and each participant's get_json_object calls are rewritten to
// placeholder reads of those columns. Returns nil when the group cannot be
// built (plans untouched — queries run unshared).
func (g *group) buildMerged(live []*participant) *producer {
	scan0 := live[0].plan.Scan
	storage := scan0.Schema()

	calls := make([]*sqlengine.PathCalls, len(live))
	for i, p := range live {
		calls[i] = sqlengine.PlanPathCalls(p.plan)
	}

	// One merged PathSet per storage column, columns in schema order so
	// every participant sees the identical extracted-column layout.
	// batchCol[i][c][j] is the batch column serving participant i's j-th path
	// over its calls[i].Cols[c].
	var extract []sqlengine.Extraction
	var extCols []sqlengine.RowCol
	batchCol := make([][][]int, len(live))
	for i, pc := range calls {
		if pc != nil {
			batchCol[i] = make([][]int, len(pc.Cols))
		}
	}
	for colIdx := range storage.Cols {
		sets := make([]*jsonpath.PathSet, len(live))
		at := make([]int, len(live)) // where colIdx sits in calls[i].Cols
		any := false
		for i, pc := range calls {
			at[i] = -1
			if pc == nil {
				continue
			}
			for c, col := range pc.Cols {
				if col.Index == colIdx {
					sets[i], at[i], any = col.Set, c, true
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
		base := len(storage.Cols) + len(extCols)
		for k, path := range merged.Paths() {
			extract = append(extract, sqlengine.Extraction{Column: scan0.Columns[colIdx], Path: path})
			extCols = append(extCols, sqlengine.RowCol{
				Name: sharedColName(colIdx, k),
				Type: datum.TypeString,
			})
		}
		for i, c := range at {
			if c < 0 {
				continue
			}
			batchCol[i][c] = make([]int, len(remaps[i]))
			for j, slot := range remaps[i] {
				batchCol[i][c][j] = base + slot
			}
		}
	}

	// The producer reads the pristine storage scan — same columns, same
	// SARG (identical across the group by fingerprint), no per-query
	// prefilters, which run post-demux in each consumer's pipeline — and
	// extracts the union after the storage columns.
	prodScan := &sqlengine.ScanNode{
		DB:      scan0.DB,
		Table:   scan0.Table,
		Binding: scan0.Binding,
		Columns: append([]string(nil), scan0.Columns...),
		SARG:    scan0.SARG,
		Extract: extract,
	}
	prodScan.SetSchema(sqlengine.RowSchema{Cols: append(append([]sqlengine.RowCol(nil), storage.Cols...), extCols...)})

	// Rewire every participant. From here on failures are per-query: a
	// participant whose rewrite fails detaches and errors alone.
	for i, p := range live {
		scan := p.plan.Scan
		cols := append(append([]sqlengine.RowCol(nil), scan.Schema().Cols...), extCols...)
		schema := sqlengine.RowSchema{Cols: cols}
		pc, target := calls[i], batchCol[i]
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
					OutputName:   schema.Cols[target[slot.Col][slot.Path]].Name,
					SourceColumn: jp.Column.Name,
					Path:         jp.Path,
				}
			})
		})
		scan.SetSchema(schema)
		p.plan.InputSchema = schema
		p.pipe = sqlengine.NewBatchPipe(demuxDepth)
		scan.Factory = &consumerFactory{p: p, schema: schema}
		if err := p.plan.Rebind(); err != nil {
			p.err = err
		}
	}

	return &producer{
		g:       g,
		e:       g.e,
		factory: sqlengine.NewSplitReader(g.e.Warehouse(), prodScan),
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
