package sqlengine

import (
	"context"
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
	"repro/internal/warehouse"
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

// SplitReader is the engine's own split reader and its default
// ScanSourceFactory: it reads one warehouse part file per split, decoding the
// scan's Columns into the first columns of the batch and filling the columns
// its Extract list extracts into the last ones, through its backend. The two
// meet in a plain scan; the Value Combiner stitches its cache columns between
// them. The list is compiled once, here, and shared by every split the reader
// opens.
type SplitReader struct {
	wh      *warehouse.Warehouse
	scan    *ScanNode
	backend ParserBackend
	x       *BatchExtraction // nil without an Extract list
}

// NewSplitReader builds the reader of scan's splits, extracting through
// backend (nil streams).
func NewSplitReader(wh *warehouse.Warehouse, scan *ScanNode, backend ParserBackend) *SplitReader {
	if backend == nil {
		backend = StreamBackend{}
	}
	return &SplitReader{wh: wh, scan: scan, backend: backend, x: CompileExtraction(scan.Columns, scan.Extract)}
}

// NumSplits implements ScanSourceFactory.
func (r *SplitReader) NumSplits() (int, error) {
	info, err := r.wh.Table(r.scan.DB, r.scan.Table)
	if err != nil {
		return 0, err
	}
	return len(info.Files), nil
}

// Schema implements ScanSourceFactory.
func (r *SplitReader) Schema() (RowSchema, error) { return r.scan.schema, nil }

// Open implements ScanSourceFactory: a raw scan of the table's split-th part,
// through prev when this reader opened it.
func (r *SplitReader) Open(split int, m *Metrics, prev BatchSource) (BatchSource, error) {
	info, err := r.wh.Table(r.scan.DB, r.scan.Table)
	if err != nil {
		return nil, err
	}
	if split < 0 || split >= len(info.Files) {
		return nil, fmt.Errorf("sql: split %d out of range for %s.%s", split, r.scan.DB, r.scan.Table)
	}
	f, err := r.wh.OpenFile(info.Files[split])
	if err != nil {
		return nil, err
	}
	src, _, err := r.OpenReader(f, m, prev)
	if err != nil {
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

// OpenReader opens a part of the scan's table the caller opened as a split,
// leaving the scan-mode marks to the caller, and hands back its cursor for a
// caller pairing it with another file's to share their row-group masks. prev
// is as for Open: a source this reader returned is re-aimed at f, any other
// is ignored.
func (r *SplitReader) OpenReader(f *orc.Reader, m *Metrics, prev BatchSource) (BatchSource, *orc.Cursor, error) {
	if r.x == nil {
		src, ok := prev.(*fileRowSource)
		if !ok || src.r != r {
			src = &fileRowSource{r: r}
		}
		if err := src.reopen(f, r.scan.Columns, m); err != nil {
			return nil, nil, err
		}
		return src, &src.cur, nil
	}
	src, ok := prev.(*extractingSource)
	if ok && src.r == r {
		src.x.Reset()
	} else {
		src = &extractingSource{fileRowSource: fileRowSource{r: r}, x: r.x.Split(r.backend),
			in: make([][]datum.Datum, len(r.x.Reads()))}
	}
	if err := src.reopen(f, r.x.Reads(), m); err != nil {
		return nil, nil, err
	}
	return src, &src.cur, nil
}

// fileRowSource reads one split of its reader's scan through its cursor,
// which OpenReader re-aims split after split.
type fileRowSource struct {
	r     *SplitReader
	cur   orc.Cursor
	meter ReadMeter
	m     *Metrics
}

// reopen aims the source at cols of f, metering into m from zero.
func (s *fileRowSource) reopen(f *orc.Reader, cols []string, m *Metrics) error {
	s.m, s.meter = m, ReadMeter{}
	return s.cur.Reopen(f, cols, s.r.scan.SARG, &s.meter.Stats)
}

// NextBatch implements BatchSource: the cursor decodes the file's values
// straight into the batch vectors, and read-stat deltas flush once per batch.
func (s *fileRowSource) NextBatch(b *RowBatch) (int, error) {
	n, err := s.cur.NextBatch(b.Cols, b.Capacity())
	s.meter.Flush(s.m, true)
	return n, err
}

// extractingSource is a fileRowSource that also fills its scan's extracted
// columns, the batch's last. in is what the cursor decodes into: the batch's
// first len(Columns) vectors, then scratch of the source's own for the
// document columns outside Columns.
type extractingSource struct {
	fileRowSource
	x  SplitExtraction
	in [][]datum.Datum
}

// NextBatch implements BatchSource: the cursor decodes into the batch and the
// scratch, the extraction fills the batch's last columns, and read-stat and
// parse deltas flush once per batch.
func (s *extractingSource) NextBatch(b *RowBatch) (int, error) {
	max, nCols := b.Capacity(), len(s.r.scan.Columns)
	copy(s.in, b.Cols[:nCols])
	for i := nCols; i < len(s.in); i++ {
		if cap(s.in[i]) < max {
			s.in[i] = make([]datum.Datum, max)
		}
		s.in[i] = s.in[i][:max]
	}
	n, err := s.cur.NextBatch(s.in, max)
	s.meter.Flush(s.m, true)
	if err == nil && n > 0 {
		c, _ := s.x.Fill(s.in, b.Cols, n) // a query does not count malformed documents; Fill reads them per path
		if s.m != nil {
			s.m.Parse.Add(c)
		}
	}
	// Drop the aliases into the caller's batch: b is lent from the pool and
	// may be recycled the moment the scan ends, and a source field must not
	// keep pointing into pool memory another scan now owns
	// (TestFallbackBatchReleasesPoolAliases).
	clear(s.in[:nCols])
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
	limit := plan.rowLimit()

	// Hash-join build side (if any), materialized once, unless a LIMIT 0
	// reads no probe row to join.
	var joinTable map[string][][]datum.Datum
	var buildWidth int
	if plan.Join != nil && limit != 0 {
		bm := &Metrics{}
		if trace != nil {
			bm.Span = trace.Child(fmt.Sprintf("join-build %s.%s", plan.Join.Build.DB, plan.Join.Build.Table))
		}
		var err error
		joinTable, buildWidth, err = e.buildJoinTable(ctx, plan, bm)
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
		factory = NewSplitReader(e.wh, plan.Scan, e.backend)
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
	var stop *limitStop
	if limit >= 0 {
		stop = newLimitStop(limit, nSplits)
	}
	var scanSpan *obs.Span
	if trace != nil {
		scanSpan = trace.Child(fmt.Sprintf("scan %s.%s", plan.Scan.DB, plan.Scan.Table))
		for split := range partMetrics {
			partMetrics[split].Span = scanSpan.Child(fmt.Sprintf("split %d", split))
		}
	}
	runSplit := func(w *scanWorker, split int) {
		defer stop.end(split) // however the split ended, the next may start
		// A panicking split (corrupt data, injected fault, executor bug) must
		// fail the query, not the process, and not its worker's other splits.
		// Its source is dropped, not re-aimed (walk), and the worker keeps its
		// batch for its next split; the split's aggregation table is left to
		// the garbage collector.
		defer func() {
			if r := recover(); r != nil {
				if e.obsC != nil {
					e.obsC.splitPanics.Inc()
				}
				results[split] = partResult{err: fmt.Errorf(
					"sql: split %d of %s.%s panicked: %v", split, plan.Scan.DB, plan.Scan.Table, r)}
			}
		}()
		results[split] = e.runPartition(ctx, w, plan, factory, split, joinTable, buildWidth, stop, &partMetrics[split])
	}
	// P workers claim splits in index order until none is left, or none the
	// LIMIT needs. Each owns its reading state for the query (scanWorker) and
	// re-aims it at every split it claims; each split owns its aggregation
	// table, its Metrics and its rows.
	var wg sync.WaitGroup
	var next atomic.Int64
	for n := min(e.parallelism, nSplits); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w scanWorker
			defer w.release()
			for split := int(next.Add(1)) - 1; split < nSplits; split = int(next.Add(1)) - 1 {
				if !stop.start(split) {
					stop.end(split)
					break
				}
				runSplit(&w, split)
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
			if p.Span.Attr("source") == "" && stop != nil {
				p.Span.Set("source", "skipped by limit")
				p.Span.End()
			}
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
	if plan.Limit >= 0 {
		// An unordered LIMIT's partitions stopped at it, so only rows that
		// splits running beside the prefix read past it are cut here.
		out = out[:min(len(out), plan.Limit)]
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

// limitStop ends an unordered LIMIT's scan at the splits its answer draws
// on. The answer is the first limit rows in split order, so once the splits
// before some split have emitted limit rows between them, finished or not,
// that split and every later one add nothing to it: a worker claims none of
// them and one already running stops at its next batch boundary. A split
// starts only once the one before it has read its first batch, so a LIMIT
// that batch fills opens no later split at any parallelism. A nil limitStop
// needs every split.
type limitStop struct {
	limit  int64
	splits []limitSplit
}

// limitSplit is one split's progress under a limitStop.
type limitSplit struct {
	out atomic.Int64 // rows emitted so far
	// read is closed once the split has read a batch, or ended.
	read chan struct{}
	shut atomic.Bool // read is closed
}

// newLimitStop builds the stop of an unordered LIMIT over nSplits splits,
// each waiting for the first batch of the one before it.
func newLimitStop(limit, nSplits int) *limitStop {
	s := &limitStop{limit: int64(limit), splits: make([]limitSplit, nSplits)}
	for i := range s.splits {
		s.splits[i].read = make(chan struct{})
	}
	return s
}

// owed bounds the rows split may add to the answer: limit less what the
// splits before it have emitted so far, which they can only add to.
func (s *limitStop) owed(split int) int {
	n := s.limit
	for i := range split {
		n -= s.splits[i].out.Load()
	}
	return int(max(n, 0))
}

// start waits until the split before split has read its first batch, and
// reports whether split may still add a row to the answer.
func (s *limitStop) start(split int) bool {
	if s == nil {
		return true
	}
	if split > 0 {
		<-s.splits[split-1].read
	}
	return s.owed(split) > 0
}

// emitted records that split has read a batch and holds rows rows.
func (s *limitStop) emitted(split, rows int) {
	if s != nil {
		s.splits[split].out.Store(int64(rows))
		s.end(split)
	}
}

// end lets the split after split start: split has read a batch, or ended.
func (s *limitStop) end(split int) {
	if s != nil && s.splits[split].shut.CompareAndSwap(false, true) {
		close(s.splits[split].read)
	}
}

// ownStrings gives the strings in rows memory of their own: one buffer they
// are copied into and sliced from. Strings read from storage are views of the
// part file they came from (orc's decoder.view), and a ResultSet outlives the
// query: without this, a ten-byte result cell would pin a whole file for as
// long as a caller, a session or the flight recorder holds the result. The
// buffer lives as long as the result does. It runs after DISTINCT, ORDER BY
// and LIMIT, so only rows that are actually returned pay for a copy.
func ownStrings(rows [][]datum.Datum) {
	size := 0
	for _, row := range rows {
		for _, d := range row {
			if d.Typ == datum.TypeString && !d.Null {
				size += len(d.S)
			}
		}
	}
	var sb strings.Builder
	sb.Grow(size) // so the builder never reallocates, and every view is of one buffer
	for _, row := range rows {
		for i := range row {
			if d := &row[i]; d.Typ == datum.TypeString && !d.Null {
				n := sb.Len()
				sb.WriteString(d.S)
				d.S = sb.String()[n:]
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

// splitTail is what runPartition runs over every batch its split reads, on
// the worker's evaluator: the plan's filter, then its projection or its
// partial aggregation.
type splitTail struct {
	plan *PhysicalPlan
	ev   *evaluator
	res  partResult
	// limit is the most rows the split may return (limitStop.owed), -1
	// without an unordered LIMIT.
	limit  int
	rowOps int64
}

// full reports whether the split holds the rows its LIMIT needs.
func (s *splitTail) full() bool { return s.limit >= 0 && len(s.res.rows) >= s.limit }

// run runs the tail over rows [0, n) of b and returns the rows it used: all
// n, or under a LIMIT the rows up to the one that filled it. The WHERE is
// then evaluated again on those alone, so that it meters what a row at a time
// would have.
func (s *splitTail) run(b *RowBatch, n int) int {
	ev, plan := s.ev, s.plan
	m := ev.top
	calls := ev.calls
	sel := ev.filter(plan.Filter, ev.begin(b, n))
	used := n
	if owed := s.limit - len(s.res.rows); s.limit >= 0 && len(sel) >= owed {
		if sel, used = sel[:owed], 0; owed > 0 {
			used = sel[owed-1] + 1
		}
		if plan.Filter != nil && used < n {
			ev.calls = calls
			ev.filter(plan.Filter, ev.begin(b, used))
		}
	}
	s.res.rowsOut += int64(len(sel))
	if plan.aggregate {
		s.res.aggs.accumulate(ev, sel)
	} else {
		s.res.rows = ev.cut(s.res.rows, len(plan.Items), func(c int) Expr { return plan.Items[c].Expr }, sel)
		if len(plan.OrderBy) > 0 {
			s.res.keys = ev.cut(s.res.keys, len(plan.OrderBy), func(c int) Expr { return plan.OrderBy[c].Expr }, sel)
		}
	}
	ev.top = m
	return used
}

// probe joins rows [0, n) of the probe batch b with the build table and runs
// the tail over the joined rows, a batch of them at a time: each holds a
// probe row's columns, then a matching build row's. When a LIMIT fills, the
// probe key is evaluated again on the probe rows up to the one whose match
// filled it, so that it meters what a row at a time would have.
func (s *splitTail) probe(b *RowBatch, n int, table map[string][][]datum.Datum, joined *RowBatch) {
	ev, keys := s.ev, s.plan.Join.LeftKeys
	m := ev.top
	calls := ev.calls
	sel := ev.joinKeys(keys, ev.begin(b, n))
	keyCalls := ev.calls - calls
	from := ev.ints(joined.size)[:0] // each joined row's probe row
	flush := func() bool {
		used := s.run(joined, len(from))
		s.rowOps += int64(used)
		if s.full() {
			ev.calls -= keyCalls
			ev.joinKeys(keys, ev.begin(b, from[used-1]+1))
		}
		from = from[:0]
		return s.full()
	}
probing:
	for _, p := range sel {
		for _, row := range table[string(ev.joinKey(p))] {
			k := len(from)
			for c, col := range b.Cols {
				joined.Cols[c][k] = col[p]
			}
			for c, d := range row {
				joined.Cols[len(b.Cols)+c][k] = d
			}
			if from = append(from, p); len(from) == joined.size && flush() {
				break probing
			}
		}
	}
	if len(from) > 0 {
		flush()
	}
	ev.top = m
}

// runPartition executes the map side of the plan over one split: scan →
// (join probe) → filter → project or partial aggregate, a batch at a time
// (splitTail). Metric deltas flush once per batch. The reading state — the
// source, the batches, the evaluator — is w's, re-aimed at split; the partial
// aggregates, m and the rows are the split's own, so they merge in split
// order.
//
// An unordered LIMIT (rowLimit) stops the partition once it holds the rows
// the splits before it leave owed (limitStop.owed). Without a WHERE or a join
// every row read is a row out, so the scan asks its source for no more rows
// than that, and no row past them is decoded, extracted or evaluated.
func (e *Engine) runPartition(ctx context.Context, w *scanWorker, plan *PhysicalPlan, factory ScanSourceFactory, split int, joinTable map[string][][]datum.Datum, buildWidth int, stop *limitStop, m *Metrics) partResult {
	if m.Span != nil {
		// Pre-created in split order for deterministic rendering; re-stamp
		// the wall window to the split's actual execution.
		m.Span.Begin()
		defer m.Span.End()
	}
	schema, err := factory.Schema()
	if err != nil {
		return partResult{err: err}
	}
	s := splitTail{plan: plan, ev: w.evaluator(), limit: -1}
	if plan.aggregate {
		s.res.aggs = getAggTable(plan)
	}
	if stop != nil {
		// The splits before it may have emitted the LIMIT's rows since
		// stop.start let it begin: a split that owes none reads nothing.
		if s.limit = stop.owed(split); s.limit == 0 {
			return s.res
		}
		// The split returns at most limit rows: size their slice for them.
		s.res.rows = make([][]datum.Datum, 0, min(s.limit, DefaultBatchSize))
	}
	readLimit := -1
	if plan.Filter == nil && plan.Join == nil {
		readLimit = s.limit
	}
	var joined *RowBatch
	if plan.Join != nil {
		joined = w.joinedBatch(len(schema.Cols)+buildWidth, e.batchSize)
	}
	flush := func() {
		m.RowOps.Add(s.rowOps)
		m.Parse.Calls.Add(s.ev.calls)
		s.rowOps, s.ev.calls = 0, 0
	}
	defer flush()

	// Cancellation is checked before the split opens and after every batch:
	// a cancelled query returns within one batch boundary rather than
	// finishing the split.
	if s.res.err = ctx.Err(); s.res.err != nil {
		return s.res
	}
	s.res.err = e.walk(w, factory, split, split+1, readLimit, m, func(batch *RowBatch, n int) error {
		e.meterBatch(m, n)
		if joined != nil {
			s.probe(batch, n, joinTable, joined)
		} else {
			s.rowOps += int64(s.run(batch, n))
		}
		flush()
		if err := ctx.Err(); err != nil {
			return err
		}
		if stop != nil {
			stop.emitted(split, len(s.res.rows))
			if s.limit = min(s.limit, stop.owed(split)); s.full() {
				return StopScan
			}
		}
		return nil
	})
	return s.res
}

// meterBatch counts one scan batch of n rows pulled by the executor.
func (e *Engine) meterBatch(m *Metrics, n int) {
	m.Batches.Add(1)
	if e.obsC != nil {
		e.obsC.batchRows.Observe(int64(n))
	}
}

// buildJoinTable reads the build-side table fully and hashes it by key.
func (e *Engine) buildJoinTable(ctx context.Context, plan *PhysicalPlan, m *Metrics) (map[string][][]datum.Datum, int, error) {
	build := plan.Join.Build
	factory := build.Factory
	if factory == nil {
		factory = NewSplitReader(e.wh, build, e.backend)
	}
	nSplits, err := factory.NumSplits()
	if err != nil {
		return nil, 0, err
	}
	table := make(map[string][][]datum.Datum)
	width := len(build.schema.Cols)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	var w scanWorker
	defer w.release()
	ev := w.evaluator()
	err = e.walk(&w, factory, 0, nSplits, -1, m, func(batch *RowBatch, n int) error {
		e.meterBatch(m, n)
		m.RowOps.Add(int64(n))
		mk := ev.top
		sel := ev.joinKeys(plan.Join.RightKeys, ev.begin(batch, n))
		slab := make([]datum.Datum, len(sel)*width)
		for j, i := range sel {
			row := slab[j*width : (j+1)*width : (j+1)*width]
			for c := range row {
				row[c] = batch.Cols[c][i]
			}
			key := ev.joinKey(i)
			table[string(key)] = append(table[string(key)], row)
		}
		ev.top = mk
		m.Parse.Calls.Add(ev.calls)
		ev.calls = 0
		return ctx.Err()
	})
	if err != nil {
		return nil, 0, err
	}
	return table, width, nil
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

// appendGroupKey encodes one group-key value: its rendering, a NUL, and a 1
// after a NULL to tell it from the string "NULL". finalizeAggregate orders
// groups by these bytes, so the encoding fixes the output order.
func appendGroupKey(kb []byte, v datum.Datum) []byte {
	kb = append(v.AppendTo(kb), 0)
	if v.Null {
		kb = append(kb, 1)
	}
	return kb
}

// group returns the group of the encoded key kb, adding it, its key datums
// row i of keys, if the table has not seen it. The probe does not allocate;
// only a new group copies the key bytes and datums.
func (t *aggTable) group(kb []byte, keys []vec, i int) int {
	g, ok := 0, len(t.names) > 0
	if t.grouped() {
		g, ok = t.index[string(kb)]
	}
	if !ok {
		g = t.add(string(kb), nil)
		for k := range keys {
			t.keys = append(t.keys, keys[k].at(i))
		}
	}
	return g
}

// accumulate folds the rows of sel into the table: it assigns every row its
// group first, then folds one aggregate at a time, its argument vector in
// selection order. Each group's values arrive in selection order, which is
// row order, so a float SUM is the same bit for bit whatever the batch size.
func (t *aggTable) accumulate(ev *evaluator, sel []int) {
	groups := ev.groups(t, sel)
	for ai, a := range t.plan.Aggs {
		if a.Arg == nil {
			for _, g := range groups {
				t.fold(g, ai, datum.Datum{})
			}
			continue
		}
		m := ev.top
		// SQL aggregates skip NULLs. A float vector is read without a datum
		// per row, which is most of this loop's time on a cast.
		if v := ev.value(a.Arg, sel); v.f != nil {
			for j, i := range sel {
				if v.ok[i] == triTrue {
					t.fold(groups[j], ai, datum.Float(v.f[i]))
				}
			}
		} else {
			for j, i := range sel {
				if d := v.at(i); !d.Null {
					t.fold(groups[j], ai, d)
				}
			}
		}
		ev.top = m
	}
}

// fold adds the non-NULL value v of aggregate i to group g's state (COUNT
// ignores v).
func (t *aggTable) fold(g, i int, v datum.Datum) {
	a := t.plan.Aggs[i]
	c := &t.cells[g*len(t.plan.Aggs)+i]
	switch a.Func {
	case AggCount:
		c.count++
	case AggSum, AggAvg:
		if f, ok := v.AsFloat(); ok {
			c.sum += f
			c.count++
		}
	case AggMin:
		if cur := &t.vals[g*t.plan.aggVals+a.valSlot]; c.count == 0 || datum.Compare(v, *cur) < 0 {
			*cur = v
		}
		c.count++
	case AggMax:
		if cur := &t.vals[g*t.plan.aggVals+a.valSlot]; c.count == 0 || datum.Compare(v, *cur) > 0 {
			*cur = v
		}
		c.count++
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

	// HAVING, the projections and the sort keys run over the groups a batch of
	// them at a time, in the evaluator's pooled vectors: each row holds a
	// group's keys, then its aggregates' values. Sort keys for agg plans are stored after the
	// visible columns; sortRows slices them back off.
	nKeys := len(plan.GroupBy)
	width := len(plan.Items) + len(plan.OrderBy)
	out := make([][]datum.Datum, 0, len(order))
	if len(order) == 0 {
		return out, t
	}
	ev := evaluatorPool.Get().(*evaluator)
	defer putEvaluator(ev)
	expr := func(c int) Expr {
		if c < len(plan.Items) {
			return plan.Items[c].Expr
		}
		return plan.OrderBy[c-len(plan.Items)].Expr
	}
	for len(order) > 0 {
		chunk := order[:min(len(order), e.batchSize)]
		order = order[len(chunk):]
		mk := ev.top
		b := ev.rowBatch(nKeys+len(plan.Aggs), len(chunk))
		for j, g := range chunk {
			for k := range nKeys {
				b.Cols[k][j] = t.keys[g*nKeys+k]
			}
			for i := range plan.Aggs {
				b.Cols[nKeys+i][j] = t.result(g, i)
			}
		}
		sel := ev.filter(plan.Having, ev.begin(b, len(chunk)))
		out = ev.cut(out, width, expr, sel)
		m.RowOps.Add(int64(len(sel)))
		ev.top = mk
	}
	return out, t
}

// ---- distinct / sort / limit ----

// distinctRows keeps the first of every run of equal rows, rows keyed as
// GROUP BY keys them (appendGroupKey), so a NULL and the string "NULL" stay
// apart.
func distinctRows(rows, keys [][]datum.Datum, m *Metrics) ([][]datum.Datum, [][]datum.Datum) {
	seen := make(map[string]bool, len(rows))
	outRows := rows[:0:0]
	var outKeys [][]datum.Datum
	var kb []byte
	for i, row := range rows {
		kb = kb[:0]
		for _, d := range row {
			kb = appendGroupKey(kb, d)
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
