package sqlengine

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/orc"
)

// ResultSet is the output of one query execution.
type ResultSet struct {
	Columns []string
	Rows    [][]datum.Datum
}

// String renders the result as an aligned text table (tools and examples).
func (rs *ResultSet) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(rs.Columns, "\t"))
	sb.WriteByte('\n')
	for _, row := range rs.Rows {
		for i, d := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(d.AsString())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// tableSource is the default ScanSourceFactory: it reads one warehouse part
// file per split.
type tableSource struct {
	e    *Engine
	scan *ScanNode
}

// NumSplits implements ScanSourceFactory.
func (ts *tableSource) NumSplits() (int, error) {
	info, err := ts.e.wh.Table(ts.scan.DB, ts.scan.Table)
	if err != nil {
		return 0, err
	}
	return len(info.Files), nil
}

// Schema implements ScanSourceFactory.
func (ts *tableSource) Schema() (RowSchema, error) { return ts.scan.schema, nil }

// Open implements ScanSourceFactory.
func (ts *tableSource) Open(split int, m *Metrics) (BatchSource, error) {
	info, err := ts.e.wh.Table(ts.scan.DB, ts.scan.Table)
	if err != nil {
		return nil, err
	}
	if split < 0 || split >= len(info.Files) {
		return nil, fmt.Errorf("sql: split %d out of range for %s.%s", split, ts.scan.DB, ts.scan.Table)
	}
	r, err := ts.e.wh.OpenFile(info.Files[split])
	if err != nil {
		return nil, err
	}
	src := &fileRowSource{m: m}
	if src.cur, err = r.NewCursor(ts.scan.Columns, ts.scan.SARG, &src.meter.Stats); err != nil {
		return nil, err
	}
	if m != nil {
		m.MarkScanMode(ScanRaw)
		if m.Span != nil {
			m.Span.Set("source", "raw")
		}
	}
	return src, nil
}

type fileRowSource struct {
	cur   *orc.Cursor
	meter ReadMeter
	m     *Metrics
}

// NextBatch implements BatchSource: the cursor decodes the file's values
// straight into the batch vectors, and read-stat deltas flush once per batch.
func (s *fileRowSource) NextBatch(b *RowBatch) (int, error) {
	n, err := s.cur.NextBatch(b.Cols, b.Capacity())
	s.meter.Flush(s.m, true)
	return n, err
}

// ReadMeter streams one cursor's read statistics into a query's Metrics:
// every Flush adds what the cursor has read since the previous one. Its owner
// opens the cursor with &meter.Stats, so the meter and the stats it reads are
// one allocation. The zero ReadMeter meters nothing.
type ReadMeter struct {
	// Stats is the ReadStats the cursor was opened with.
	Stats orc.ReadStats
	prev  orc.ReadStats
}

// Flush adds the cursor's stat deltas to m (nil means unmetered). countRows
// says this cursor's RowsRead is the scan's RowsScanned: a cache cursor
// paired with a raw one reads the same rows again and leaves the count to
// its partner.
func (r *ReadMeter) Flush(m *Metrics, countRows bool) {
	if m == nil || r.Stats == r.prev {
		return
	}
	cur := r.Stats
	m.BytesRead.Add(cur.BytesRead - r.prev.BytesRead)
	if countRows {
		m.RowsScanned.Add(cur.RowsRead - r.prev.RowsRead)
	}
	m.RowGroupsRead.Add(cur.RowGroupsRead - r.prev.RowGroupsRead)
	m.RowGroupsSkipped.Add(cur.RowGroupsSkipped - r.prev.RowGroupsSkipped)
	r.prev = cur
}

// ExecuteCtx runs a physical plan under a context and returns its results
// plus metrics; cancellation and deadlines are honored at batch boundaries.
func (e *Engine) ExecuteCtx(ctx context.Context, plan *PhysicalPlan) (*ResultSet, *Metrics, error) {
	return e.execute(ctx, plan, nil)
}

// execute runs a physical plan; when trace is non-nil each operator and
// scan partition records a span under it.
func (e *Engine) execute(ctx context.Context, plan *PhysicalPlan, trace *obs.Span) (*ResultSet, *Metrics, error) {
	m := &Metrics{Trace: trace, Span: trace}
	start := e.nowWall()
	calls := PlanPathCalls(plan)

	// Hash-join build side (if any), materialized once.
	var joinTable map[string][][]datum.Datum
	var buildWidth int
	if plan.Join != nil {
		bm := &Metrics{}
		if trace != nil {
			bm.Span = trace.Child(fmt.Sprintf("join-build %s.%s", plan.Join.Build.DB, plan.Join.Build.Table))
		}
		var err error
		joinTable, buildWidth, err = e.buildJoinTable(ctx, plan, calls, bm)
		if bm.Span != nil {
			bm.Span.End()
			bm.Span.SetInt("rows", bm.RowsScanned.Load())
			bm.Span.SetInt("bytes", bm.BytesRead.Load())
			bm.Span.SetInt("parse-docs", bm.Parse.Docs.Load())
		}
		bm.addTo(m)
		if err != nil {
			return nil, nil, err
		}
	}

	factory := plan.Scan.Factory
	if factory == nil {
		factory = &tableSource{e: e, scan: plan.Scan}
	}
	nSplits, err := factory.NumSplits()
	if err != nil {
		return nil, nil, err
	}

	// Per-partition metrics roll up into the query totals after the fan-out;
	// split spans are pre-created in split order so the tree is
	// deterministic even though partitions run concurrently.
	results := make([]partResult, nSplits)
	partMetrics := make([]Metrics, nSplits)
	var scanSpan *obs.Span
	if trace != nil {
		scanSpan = trace.Child(fmt.Sprintf("scan %s.%s", plan.Scan.DB, plan.Scan.Table))
		for split := range partMetrics {
			partMetrics[split].Span = scanSpan.Child(fmt.Sprintf("split %d", split))
		}
	}
	runSplit := func(split int) {
		// A panicking split (corrupt data, injected fault, executor bug) must
		// fail the query, not the process, and not its worker's other splits.
		// ScanBatches' defer runs before this recover, so the lent batch is
		// back in the pool; the split's aggregation table is left to the
		// garbage collector.
		defer func() {
			if r := recover(); r != nil {
				if e.obsC != nil {
					e.obsC.splitPanics.Inc()
				}
				results[split] = partResult{err: fmt.Errorf(
					"sql: split %d of %s.%s panicked: %v", split, plan.Scan.DB, plan.Scan.Table, r)}
			}
		}()
		results[split] = e.runPartition(ctx, plan, calls, factory, split, joinTable, buildWidth, &partMetrics[split])
	}
	// P workers claim splits in index order until none is left.
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := min(e.parallelism, nSplits); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for split := int(next.Add(1)) - 1; split < nSplits; split = int(next.Add(1)) - 1 {
				runSplit(split)
			}
		}()
	}
	wg.Wait()
	if scanSpan != nil {
		scanSpan.End()
	}

	// Fold the per-split work into the query totals and annotate each
	// split's span with what it actually did.
	sm := &Metrics{} // scan-level totals
	var mapOut int64
	for split, pm := range results {
		p := &partMetrics[split]
		if p.Span != nil {
			p.Span.SetInt("rows", p.RowsScanned.Load())
			p.Span.SetInt("out", pm.rowsOut)
			p.Span.SetInt("bytes", p.BytesRead.Load())
			p.Span.SetInt("parse-docs", p.Parse.Docs.Load())
			if n := p.CacheValuesRead.Load(); n > 0 {
				p.Span.SetInt("cache-values", n)
			}
			if n := p.RowGroupsSkipped.Load(); n > 0 {
				p.Span.SetInt("rowgroups-skipped", n)
			}
		}
		p.addTo(sm)
		mapOut += pm.rowsOut
	}
	if scanSpan != nil {
		scanSpan.SetInt("splits", int64(nSplits))
		scanSpan.SetInt("rows", sm.RowsScanned.Load())
		scanSpan.SetInt("out", mapOut)
		scanSpan.SetInt("bytes", sm.BytesRead.Load())
		pc := sm.Parse.Snapshot()
		scanSpan.SetInt("parse-docs", pc.Docs)
		scanSpan.SetInt("parse-bytes", pc.Bytes)
		if pc.Skipped > 0 {
			scanSpan.SetInt("parse-bytes-skipped", pc.Skipped)
		}
		scanSpan.SetInt("parse-calls", pc.Calls)
		scanSpan.SetInt("rowgroups", sm.RowGroupsRead.Load())
		scanSpan.SetInt("rowgroups-skipped", sm.RowGroupsSkipped.Load())
		if n := sm.PrefilterSkipped.Load(); n > 0 {
			scanSpan.SetInt("prefilter-skipped", n)
		}
		if n := sm.CacheValuesRead.Load(); n > 0 {
			scanSpan.SetInt("cache-values", n)
		}
	}
	sm.addTo(m)
	for _, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
	}

	var out [][]datum.Datum
	var sortKeys [][]datum.Datum
	if plan.aggregate {
		opsBefore := m.RowOps.Load()
		aggStart := time.Now()
		var merged *aggTable
		out, merged = e.finalizeAggregate(plan, results, m)
		// Every key and MIN/MAX value is copied into out: the tables go back
		// to the pool. A failed query returned above and pools none.
		putAggTable(merged)
		for _, r := range results {
			if r.aggs != merged {
				putAggTable(r.aggs)
			}
		}
		if trace != nil {
			span := trace.Child("aggregate")
			span.SetWindow(aggStart, time.Now())
			span.SetInt("groups", int64(len(out)))
			span.SetInt("row-ops", m.RowOps.Load()-opsBefore)
		}
		sortKeys = nil // agg sort keys are computed from post rows below
	} else {
		for _, r := range results {
			out = append(out, r.rows...)
			sortKeys = append(sortKeys, r.keys...)
		}
	}

	if plan.Distinct {
		opsBefore := m.RowOps.Load()
		distinctStart := time.Now()
		out, sortKeys = distinctRows(out, sortKeys, m)
		if trace != nil {
			span := trace.Child("distinct")
			span.SetWindow(distinctStart, time.Now())
			span.SetInt("out", int64(len(out)))
			span.SetInt("row-ops", m.RowOps.Load()-opsBefore)
		}
	}
	if len(plan.OrderBy) > 0 {
		opsBefore := m.RowOps.Load()
		sortStart := time.Now()
		sortRows(plan, out, sortKeys, m)
		if trace != nil {
			span := trace.Child("sort")
			span.SetWindow(sortStart, time.Now())
			span.SetInt("rows", int64(len(out)))
			span.SetInt("row-ops", m.RowOps.Load()-opsBefore)
		}
	}
	if plan.Limit >= 0 && len(out) > plan.Limit {
		out = out[:plan.Limit]
		if trace != nil {
			trace.Child("limit").SetInt("out", int64(len(out)))
		}
	}
	if trace != nil {
		trace.End()
		trace.SetInt("rows", int64(len(out)))
	}

	m.WallTime = e.nowWall() - start
	e.obsC.publish(m)
	ownStrings(out)
	return &ResultSet{Columns: plan.OutputSchema.Names(), Rows: out}, m, nil
}

// ownStrings gives every string in rows its own memory. Strings read from
// storage are views of the part file they came from (orc's decoder.view), and
// a ResultSet outlives the query: without this, a ten-byte result cell would
// pin a whole file for as long as a caller, a session or the flight recorder
// holds the result. It runs after DISTINCT, ORDER BY and LIMIT, so only rows
// that are actually returned pay for a copy.
func ownStrings(rows [][]datum.Datum) {
	for _, row := range rows {
		for i := range row {
			if row[i].Typ == datum.TypeString && !row[i].Null {
				row[i].S = strings.Clone(row[i].S)
			}
		}
	}
}

// partResult is the map-side output of one partition.
type partResult struct {
	rows [][]datum.Datum // projected output (non-agg mode)
	keys [][]datum.Datum // sort keys per row (non-agg with ORDER BY)
	aggs *aggTable       // partial aggregates (agg mode)
	// rowsOut counts rows surviving the filter (rows projected, or rows
	// folded into partial aggregates) — the split's post-filter cardinality
	// reported in EXPLAIN ANALYZE.
	rowsOut int64
	err     error
}

// execScratch holds one partition's reusable buffers: the row-major gather
// view of the current batch row, the joined-row scratch, the join/group key
// build buffer, the rendered-value scratch, the group-key datums, and the
// arena that persistent output rows are carved from.
type execScratch struct {
	row    []datum.Datum // gather view of the current batch row
	joined []datum.Datum // probe-side joined row
	keyBuf []byte        // join/group key build buffer
	valBuf []byte        // one rendered value (join-key length prefixing)
	keys   []datum.Datum // group-by key values of the current row
	arena  datumArena
}

// runPartition executes the map side of the plan over one split:
// scan → (join probe) → filter → project or partial aggregate. Rows move
// through the partition batch-at-a-time: the scan fills a pooled
// column-major RowBatch, prefilters evaluate column-wise into the batch's
// selection vector, and the filter + projection (or partial aggregation)
// run fused over the selected rows, so a document the filter parsed is
// still memoized by the doc evaluator when the projection needs it. Metric
// deltas accumulate in locals and flush once per batch.
func (e *Engine) runPartition(ctx context.Context, plan *PhysicalPlan, calls *PathCalls, factory ScanSourceFactory, split int, joinTable map[string][][]datum.Datum, buildWidth int, m *Metrics) (res partResult) {
	if m.Span != nil {
		// Pre-created in split order for deterministic rendering; re-stamp
		// the wall window to the split's actual execution.
		m.Span.Begin()
		defer m.Span.End()
	}
	schema, err := factory.Schema()
	if err != nil {
		res.err = err
		return res
	}
	// A plan without get_json_object calls (fully cached, COUNT(*), plain
	// columns) gets no document evaluator at all.
	ec := &EvalContext{Metrics: m}
	if calls != nil {
		ec.Doc = e.backend.NewDocEvaluator(&m.Parse, calls)
	}
	if plan.aggregate {
		res.aggs = getAggTable(plan)
	}
	wantSortKeys := !plan.aggregate && len(plan.OrderBy) > 0
	preFilters := plan.Scan.PreFilters

	width := len(schema.Cols)
	sc := &execScratch{row: make([]datum.Datum, width, width+buildWidth)}

	// Per-batch local counters, flushed in one atomic add each.
	var rowOps, prefSkipped, prefBytes int64
	flush := func() {
		if rowOps != 0 {
			m.RowOps.Add(rowOps)
			rowOps = 0
		}
		if prefSkipped != 0 {
			m.PrefilterSkipped.Add(prefSkipped)
			prefSkipped = 0
		}
		if prefBytes != 0 {
			m.PrefilterBytes.Add(prefBytes)
			prefBytes = 0
		}
	}
	defer flush()

	// prefilterRow applies the Sparser-style raw filters to one materialized
	// (joined) row: a document lacking the needle cannot satisfy its equality
	// conjunct — skip it before any parsing. Escape-encoded documents (any
	// backslash) may hide the value's text, so they are never skipped — only
	// parsed and verified.
	prefilterRow := func(row []datum.Datum) bool {
		for _, pf := range preFilters {
			if pf.colIdx < 0 || pf.colIdx >= len(row) {
				continue
			}
			doc := row[pf.colIdx]
			if doc.Null {
				prefSkipped++
				return false
			}
			prefBytes += int64(len(doc.S))
			if !strings.Contains(doc.S, pf.Needle) && !strings.ContainsRune(doc.S, '\\') {
				prefSkipped++
				return false
			}
		}
		return true
	}

	// emit runs the fused filter → project / partial-aggregate tail for one
	// row that survived the prefilters.
	emit := func(row []datum.Datum) {
		if plan.Filter != nil {
			if !Truthy(Eval(plan.Filter, row, ec)) {
				return
			}
		}
		res.rowsOut++
		if plan.aggregate {
			res.aggs.accumulate(row, ec, sc)
			return
		}
		outRow := sc.arena.alloc(len(plan.Items))
		for i, it := range plan.Items {
			outRow[i] = Eval(it.Expr, row, ec)
		}
		res.rows = append(res.rows, outRow)
		if wantSortKeys {
			keys := sc.arena.alloc(len(plan.OrderBy))
			for i, o := range plan.OrderBy {
				keys[i] = Eval(o.Expr, row, ec)
			}
			res.keys = append(res.keys, keys)
		}
	}

	// Cancellation is checked before the split opens and after every batch:
	// a cancelled query returns within one batch boundary rather than
	// finishing the split.
	if res.err = ctx.Err(); res.err != nil {
		return res
	}
	res.err = e.ScanBatches(factory, split, split+1, m, func(batch *RowBatch, n int) error {
		e.meterBatch(m, n)

		if plan.Join != nil {
			// Probe the hash table; inner join emits one row per match.
			for i := 0; i < n; i++ {
				row := batch.Gather(i, sc.row)
				key, ok := appendJoinKey(sc.keyBuf[:0], plan.Join.LeftKeys, row, ec, sc)
				sc.keyBuf = key
				if !ok {
					continue // NULL keys never join
				}
				for _, buildRow := range joinTable[string(key)] {
					joined := append(append(sc.joined[:0], row...), buildRow...)
					sc.joined = joined
					rowOps++
					if prefilterRow(joined) {
						emit(joined)
					}
				}
			}
			flush()
			return ctx.Err()
		}

		rowOps += int64(n)
		// Column-wise prefilter into the selection vector; the fused tail
		// only gathers rows that survived.
		sel := batch.Sel[:0]
		if len(preFilters) > 0 {
		rows:
			for i := 0; i < n; i++ {
				for _, pf := range preFilters {
					if pf.colIdx < 0 || pf.colIdx >= width {
						continue
					}
					doc := batch.Cols[pf.colIdx][i]
					if doc.Null {
						prefSkipped++
						continue rows
					}
					prefBytes += int64(len(doc.S))
					if !strings.Contains(doc.S, pf.Needle) && !strings.ContainsRune(doc.S, '\\') {
						prefSkipped++
						continue rows
					}
				}
				sel = append(sel, i)
			}
		} else {
			for i := 0; i < n; i++ {
				sel = append(sel, i)
			}
		}
		batch.Sel = sel
		for _, i := range sel {
			emit(batch.Gather(i, sc.row))
		}
		flush()
		return ctx.Err()
	})
	return res
}

// meterBatch counts one scan batch of n rows pulled by the executor.
func (e *Engine) meterBatch(m *Metrics, n int) {
	m.Batches.Add(1)
	if e.obsC != nil {
		e.obsC.batchRows.Observe(int64(n))
	}
}

// buildJoinTable reads the build-side table fully and hashes it by key.
func (e *Engine) buildJoinTable(ctx context.Context, plan *PhysicalPlan, calls *PathCalls, m *Metrics) (map[string][][]datum.Datum, int, error) {
	build := plan.Join.Build
	factory := build.Factory
	if factory == nil {
		factory = &tableSource{e: e, scan: build}
	}
	nSplits, err := factory.NumSplits()
	if err != nil {
		return nil, 0, err
	}
	ec := &EvalContext{Metrics: m}
	if calls != nil {
		ec.Doc = e.backend.NewDocEvaluator(&m.Parse, calls)
	}
	table := make(map[string][][]datum.Datum)
	width := len(build.schema.Cols)
	sc := &execScratch{row: make([]datum.Datum, width)}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	err = e.ScanBatches(factory, 0, nSplits, m, func(batch *RowBatch, n int) error {
		e.meterBatch(m, n)
		m.RowOps.Add(int64(n))
		for i := 0; i < n; i++ {
			row := batch.Gather(i, sc.row)
			key, ok := appendJoinKey(sc.keyBuf[:0], plan.Join.RightKeys, row, ec, sc)
			sc.keyBuf = key
			if !ok {
				continue
			}
			cp := sc.arena.alloc(len(row))
			copy(cp, row)
			table[string(key)] = append(table[string(key)], cp)
		}
		return ctx.Err()
	})
	if err != nil {
		return nil, 0, err
	}
	return table, width, nil
}

// appendJoinKey encodes the key tuple into buf as length-prefixed binary
// fields (uvarint byte length, then the rendered value). Length prefixes
// remove both the per-row string allocation the old concatenation paid and
// its field-boundary collisions (("ab","c") vs ("a","bc") once a value
// contains the separator byte). ok=false means a NULL key, which never
// matches; an empty key tuple keeps the legacy never-matches behavior.
func appendJoinKey(buf []byte, keys []Expr, row []datum.Datum, ctx *EvalContext, sc *execScratch) ([]byte, bool) {
	if len(keys) == 0 {
		return buf, false
	}
	for _, k := range keys {
		v := Eval(k, row, ctx)
		if v.Null {
			return buf[:0], false
		}
		sc.valBuf = v.AppendTo(sc.valBuf[:0])
		buf = binary.AppendUvarint(buf, uint64(len(sc.valBuf)))
		buf = append(buf, sc.valBuf...)
	}
	return buf, true
}

// ---- aggregation ----

// aggCell is one aggregate's running state for one group. count is the rows
// COUNT counted, the numeric values SUM/AVG added, or the non-NULL values
// MIN/MAX compared — so for every function count == 0 means "no value yet".
type aggCell struct {
	count int64
	sum   float64
}

// aggTable is one partition's partial aggregation state: the groups in arrival
// order, each owning one stride of three flat slabs. Group g's key datums are
// keys[g*len(GroupBy):], its cells cells[g*len(Aggs):] (one per aggregate) and
// its MIN/MAX values vals[g*aggVals:] (one per MIN or MAX aggregate, at
// Aggregate.valSlot), so a new group costs its name string and an amortized
// share of five appends, whatever the number of aggregates. Tables are pooled
// (getAggTable, putAggTable) and arrive with the capacity earlier queries grew
// them to.
type aggTable struct {
	plan *PhysicalPlan
	// index finds a group by its encoded key. A plan without GROUP BY has one
	// group and leaves the index empty.
	index map[string]int
	names []string // encoded group keys; their byte order is the output order
	keys  []datum.Datum
	cells []aggCell
	vals  []datum.Datum
}

// aggTablePool recycles aggregation tables across partitions and queries.
// execute is the one caller of putAggTable, once finalizeAggregate has copied
// every key and MIN/MAX value into the output rows; a table of a failed,
// cancelled or panicked query is left to the garbage collector.
var aggTablePool = sync.Pool{New: func() any { return &aggTable{index: make(map[string]int)} }}

// maxPooledAggGroups is the group capacity above which putAggTable drops a
// table instead of pooling it: one huge GROUP BY must not pin its index and
// slabs, or make every later small query pay to clear them. bench/'s widest
// shape has 60 groups.
const maxPooledAggGroups = 1024

// getAggTable returns an empty pooled table for plan.
func getAggTable(plan *PhysicalPlan) *aggTable {
	t := aggTablePool.Get().(*aggTable)
	t.plan = plan
	return t
}

// putAggTable empties t and pools it. Clearing the used prefix of the datum
// slabs and the names drops every view of a part file the table held, so a
// pooled table pins no storage; the slabs past their length are still zero.
func putAggTable(t *aggTable) {
	if cap(t.names) > maxPooledAggGroups {
		return
	}
	clear(t.index)
	clear(t.names)
	clear(t.keys)
	clear(t.vals)
	t.plan = nil
	t.names, t.keys, t.cells, t.vals = t.names[:0], t.keys[:0], t.cells[:0], t.vals[:0]
	aggTablePool.Put(t)
}

// grouped reports whether t's plan has a GROUP BY, and so uses the index. A
// pooled table may have served either kind of plan, so the plan decides.
func (t *aggTable) grouped() bool { return len(t.plan.GroupBy) > 0 }

// add appends a group with zeroed aggregate state and returns its number.
func (t *aggTable) add(name string, keys []datum.Datum) int {
	g := len(t.names)
	if t.grouped() {
		t.index[name] = g
	}
	t.names = append(t.names, name)
	t.keys = append(t.keys, keys...)
	t.cells = append(t.cells, make([]aggCell, len(t.plan.Aggs))...)
	t.vals = append(t.vals, make([]datum.Datum, t.plan.aggVals)...)
	return g
}

// state returns group g's cells and MIN/MAX values.
func (t *aggTable) state(g int) ([]aggCell, []datum.Datum) {
	nAggs, nVals := len(t.plan.Aggs), t.plan.aggVals
	return t.cells[g*nAggs:][:nAggs], t.vals[g*nVals:][:nVals]
}

// accumulate folds one input row into the table. The group key renders into
// sc.keyBuf NUL-separated (finalizeAggregate orders groups by these bytes, so
// the encoding fixes the output order) and probes the index without
// allocating; only a new group copies the key bytes and datums out of the
// scratch.
func (t *aggTable) accumulate(row []datum.Datum, ctx *EvalContext, sc *execScratch) {
	kb := sc.keyBuf[:0]
	ks := sc.keys[:0]
	for _, g := range t.plan.GroupBy {
		v := Eval(g, row, ctx)
		ks = append(ks, v)
		kb = v.AppendTo(kb)
		kb = append(kb, 0)
		if v.Null {
			kb = append(kb, 1) // distinguish NULL from "NULL"
		}
	}
	sc.keyBuf, sc.keys = kb, ks
	g, ok := 0, len(t.names) > 0
	if t.grouped() {
		g, ok = t.index[string(kb)]
	}
	if !ok {
		g = t.add(string(kb), ks)
	}
	cells, vals := t.state(g)
	for i, a := range t.plan.Aggs {
		var v datum.Datum
		if a.Arg != nil {
			v = Eval(a.Arg, row, ctx)
			if v.Null {
				continue // SQL aggregates skip NULLs
			}
		}
		c := &cells[i]
		switch a.Func {
		case AggCount:
			c.count++
		case AggSum, AggAvg:
			if f, ok := v.AsFloat(); ok {
				c.sum += f
				c.count++
			}
		case AggMin:
			if c.count == 0 || datum.Compare(v, vals[a.valSlot]) < 0 {
				vals[a.valSlot] = v
			}
			c.count++
		case AggMax:
			if c.count == 0 || datum.Compare(v, vals[a.valSlot]) > 0 {
				vals[a.valSlot] = v
			}
			c.count++
		}
	}
}

// merge folds src's groups into t in src's arrival order. A group t has not
// seen takes src's state as it stands, not zero plus it, which would turn a
// partial sum of -0 into +0.
func (t *aggTable) merge(src *aggTable) {
	nKeys := len(t.plan.GroupBy)
	for sg, name := range src.names {
		from, fromVals := src.state(sg)
		g, ok := 0, len(t.names) > 0
		if t.grouped() {
			g, ok = t.index[name]
		}
		if !ok {
			g = t.add(name, src.keys[sg*nKeys:][:nKeys])
		}
		cells, vals := t.state(g)
		if !ok {
			copy(cells, from)
			copy(vals, fromVals)
			continue
		}
		for i, a := range t.plan.Aggs {
			switch a.Func {
			case AggMin:
				if from[i].count > 0 && (cells[i].count == 0 || datum.Compare(fromVals[a.valSlot], vals[a.valSlot]) < 0) {
					vals[a.valSlot] = fromVals[a.valSlot]
				}
			case AggMax:
				if from[i].count > 0 && (cells[i].count == 0 || datum.Compare(fromVals[a.valSlot], vals[a.valSlot]) > 0) {
					vals[a.valSlot] = fromVals[a.valSlot]
				}
			}
			cells[i].count += from[i].count
			cells[i].sum += from[i].sum
		}
	}
}

// result is aggregate i's final value for group g.
func (t *aggTable) result(g, i int) datum.Datum {
	cells, vals := t.state(g)
	a, c := t.plan.Aggs[i], cells[i]
	switch a.Func {
	case AggCount:
		return datum.Int(c.count)
	case AggSum, AggAvg:
		if c.count == 0 {
			return datum.NullOf(datum.TypeFloat64)
		}
		if a.Func == AggAvg {
			return datum.Float(c.sum / float64(c.count))
		}
		return datum.Float(c.sum)
	}
	if c.count == 0 {
		return datum.NullOf(datum.TypeString)
	}
	return vals[a.valSlot]
}

// finalizeAggregate merges the partitions' tables into the first one, then
// produces the post-aggregation rows and evaluates HAVING, the projections and
// the sort keys over them. The merge runs in split order, so a group's
// partial sums are added in split order whatever the parallelism and a float
// SUM comes out bit for bit the same. It returns the merged table, which is
// the first partition's or, with no splits, one it took from the pool.
func (e *Engine) finalizeAggregate(plan *PhysicalPlan, parts []partResult, m *Metrics) ([][]datum.Datum, *aggTable) {
	var t *aggTable
	for _, p := range parts {
		m.RowOps.Add(int64(len(p.aggs.names)))
		if t == nil {
			t = p.aggs
		} else {
			t.merge(p.aggs)
		}
	}
	if t == nil {
		t = getAggTable(plan)
	}
	// Global aggregation with no input rows still yields one row.
	if len(plan.GroupBy) == 0 && len(t.names) == 0 {
		t.add("", nil)
	}
	order := make([]int, len(t.names))
	for g := range order {
		order[g] = g
	}
	// Deterministic group order before any ORDER BY.
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(t.names[a], t.names[b]) })

	ctx := &EvalContext{Metrics: m}
	nKeys := len(plan.GroupBy)
	post := make([]datum.Datum, nKeys+len(plan.Aggs))
	// Sort keys for agg plans are evaluated over post rows and stored after
	// the visible columns; sortRows slices them back off.
	width := len(plan.Items) + len(plan.OrderBy)
	arena := datumArena{next: min(len(order)*width, maxArenaChunkDatums)}
	out := make([][]datum.Datum, 0, len(order))
	for _, g := range order {
		copy(post, t.keys[g*nKeys:][:nKeys])
		for i := range plan.Aggs {
			post[nKeys+i] = t.result(g, i)
		}
		if plan.Having != nil && !Truthy(Eval(plan.Having, post, ctx)) {
			continue
		}
		outRow := arena.alloc(width)
		for i, it := range plan.Items {
			outRow[i] = Eval(it.Expr, post, ctx)
		}
		for i, o := range plan.OrderBy {
			outRow[len(plan.Items)+i] = Eval(o.Expr, post, ctx)
		}
		out = append(out, outRow)
		m.RowOps.Add(1)
	}
	return out, t
}

// ---- distinct / sort / limit ----

func distinctRows(rows, keys [][]datum.Datum, m *Metrics) ([][]datum.Datum, [][]datum.Datum) {
	seen := make(map[string]bool, len(rows))
	outRows := rows[:0:0]
	var outKeys [][]datum.Datum
	var kb []byte
	for i, row := range rows {
		kb = kb[:0]
		for _, d := range row {
			kb = d.AppendTo(kb)
			kb = append(kb, 0)
		}
		m.RowOps.Add(1)
		if seen[string(kb)] {
			continue
		}
		seen[string(kb)] = true
		outRows = append(outRows, row)
		if keys != nil {
			outKeys = append(outKeys, keys[i])
		}
	}
	return outRows, outKeys
}

// sortRows orders rows by the plan's ORDER BY. Non-aggregate plans carry
// precomputed key tuples; aggregate plans appended keys to each row.
func sortRows(plan *PhysicalPlan, rows, keys [][]datum.Datum, m *Metrics) {
	nVisible := len(plan.Items)
	keyOf := func(i int, k int) datum.Datum {
		if keys != nil {
			return keys[i][k]
		}
		return rows[i][nVisible+k]
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		m.RowOps.Add(1)
		for k, o := range plan.OrderBy {
			c := datum.Compare(keyOf(idx[a], k), keyOf(idx[b], k))
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([][]datum.Datum, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
	// Trim hidden agg sort keys.
	if keys == nil {
		for i := range rows {
			rows[i] = rows[i][:nVisible]
		}
	}
}
