package scanshare

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/datum"
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

	// open counts the consumers that have not left the pass (participant.
	// leave); failed, the ones that left on an error or a cancellation.
	open, failed atomic.Int32
}

// claim folds the producer's metrics into m exactly once across the group.
// Only a consumer that reached the clean end of the stream, or that left the
// pass last, early and cleanly, calls it, so cancelled or errored queries
// (whose metrics the engine discards) can never swallow the producer's
// accounting.
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
	g.open.Store(int32(len(cons)))
	g.launched = true
	g.s.c.groups.Inc()
	g.s.c.coalesced.Add(int64(len(cons)))
	go pr.run()
}

// build sets up one pass for the group: the producer extracts the union of
// the participants' Extract lists after everything else it reads, and each
// participant receives, in its own plan's layout, the columns it reads of
// the producer's. A raw scan's producer is the engine's split reader
// extracting the union; a Unioner's is its union over the participants'
// factories, which reads their own columns between the scan's and the
// extracted ones. No plan is rewritten: a participant's scan only gets a
// consumer factory. Returns nil when the group cannot be built (plans
// untouched — queries run unshared).
func (g *group) build(live []*participant) *producer {
	scan0 := live[0].plan.Scan

	// The union of the extractions, in first-seen order, each with its
	// column as a participant's schema has it.
	var extract []sqlengine.Extraction
	var extCols []sqlengine.RowCol
	for _, p := range live {
		scan := p.plan.Scan
		cols := scan.Schema().Cols
		first := len(cols) - len(scan.Extract)
		for i, x := range scan.Extract {
			if indexOf(extCols, cols[first+i]) < 0 {
				extract = append(extract, x)
				extCols = append(extCols, cols[first+i])
			}
		}
	}

	// The producer reads the pristine scan — same columns, same SARG and
	// share key (identical across the group by fingerprint).
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
		cols := scan0.Schema().Cols[:len(scan0.Columns)]
		prodScan.SetSchema(sqlengine.RowSchema{Cols: append(slices.Clip(cols), extCols...)})
		factory = sqlengine.NewSplitReader(g.e.Warehouse(), prodScan, g.e.Backend())
	}
	prod, err := factory.Schema()
	if err != nil {
		return nil
	}

	// Route the producer's columns to every participant: the scan's own
	// columns where they are, each get_json_object column by its document
	// column and path. From here on failures are per-query.
	for _, p := range live {
		scan := p.plan.Scan
		cols := scan.Schema().Cols
		p.cols = make([]int, len(cols))
		p.view = make([][]datum.Datum, len(cols))
		for j, c := range cols {
			p.cols[j] = j
			if j >= len(scan.Columns) {
				p.cols[j] = indexOf(prod.Cols, c)
			}
			if p.cols[j] < 0 {
				p.err = fmt.Errorf("scanshare: the shared pass has no column %s %s", c.Name, c.Path)
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

// indexOf returns the position among cols of the get_json_object column c
// names — the same document column and path — or -1.
func indexOf(cols []sqlengine.RowCol, c sqlengine.RowCol) int {
	return slices.IndexFunc(cols, func(d sqlengine.RowCol) bool {
		return d.Path != "" && d.Path == c.Path && strings.EqualFold(d.Name, c.Name)
	})
}

// participant is one query's membership in a group. It doubles as the
// SharedScanHandle the engine releases when the query finishes.
type participant struct {
	plan *sqlengine.PhysicalPlan
	qctx context.Context
	g    *group

	// pipe carries this query's copy of the shared pass, producer→consumer:
	// its schema's j-th column is the producer's cols[j]. view is the
	// producer's scratch for gathering them. pipe, cols, shared and err are
	// written by the sealer before g.sealed closes.
	pipe   *sqlengine.BatchPipe
	cols   []int
	view   [][]datum.Datum
	shared bool
	err    error
	// left is set when p leaves the pass.
	left atomic.Bool
}

// Release implements sqlengine.SharedScanHandle: the engine calls it once
// when the query completes, however it ended.
func (p *participant) Release() { p.leave(p.qctx.Err() != nil) }

// leave abandons p's pipe and, the first time, counts p out of the pass:
// failed when it left on an error or a cancellation, which the pass did not
// serve. It reports whether p was the last consumer to leave.
func (p *participant) leave(failed bool) bool {
	p.pipe.Abandon()
	if !p.left.CompareAndSwap(false, true) {
		return false
	}
	if failed {
		p.g.failed.Add(1)
	}
	return p.g.open.Add(-1) == 0
}
