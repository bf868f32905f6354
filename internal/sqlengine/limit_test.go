package sqlengine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/leakcheck"
	"repro/internal/testbed"
)

// limitEngine returns an engine over db.t (id, doc): splits part files of
// rows rows each, ids counting from 0 and each document {"a": id, "pad": …}.
func limitEngine(t *testing.T, splits, rows int, opts ...EngineOption) *Engine {
	t.Helper()
	table := testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc}
	id := 0
	for s := 0; s < splits; s++ {
		part := make([][]datum.Datum, rows)
		for i := range part {
			part[i] = []datum.Datum{datum.Int(int64(id)), datum.Str(fmt.Sprintf(`{"a":%d,"pad":%q}`, id, strings.Repeat("x", 40)))}
			id++
		}
		table.Parts = append(table.Parts, part)
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 16})
	if err := bed.Load(0, table); err != nil {
		t.Fatal(err)
	}
	return NewEngine(bed.WH, append([]EngineOption{WithDefaultDB("db")}, opts...)...)
}

// explainLimit runs sql under EXPLAIN ANALYZE and returns its rows, its
// metrics and the sources its split spans record, in split order.
func explainLimit(t *testing.T, e *Engine, sql string) (*ResultSet, *Metrics, []string) {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, rs, m, err := e.ExplainAnalyzeStmtCtx(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	var sources []string
	for _, c := range m.Trace.Children() {
		if strings.HasPrefix(c.Name, "scan ") {
			for _, sp := range c.Children() {
				sources = append(sources, sp.Attr("source"))
			}
		}
	}
	return rs, m, sources
}

// opened counts the splits a query opened: the ones whose span names the
// source that served them.
func opened(sources []string) int {
	n := 0
	for _, s := range sources {
		if s != "skipped by limit" {
			n++
		}
	}
	return n
}

// TestUnorderedLimitStopsTheScan pins the work an unordered LIMIT does over a
// 10-split raw table: its first split, and in it only the rows it returns.
// Before the scan stopped at the LIMIT, the same query read, parsed and
// materialised all 1,000 rows to return 10.
func TestUnorderedLimitStopsTheScan(t *testing.T) {
	const sql = `SELECT get_json_object(doc, '$.a') a FROM db.t LIMIT 10`
	e := limitEngine(t, 10, 100, WithParallelism(1))
	rs, m, sources := explainLimit(t, e, sql)
	if len(rs.Rows) != 10 || rs.Rows[0][0].S != "0" || rs.Rows[9][0].S != "9" {
		t.Fatalf("rows = %v, want a = 0..9", rs.Rows)
	}
	if n := opened(sources); n != 1 || sources[0] != "raw" {
		t.Errorf("opened %d splits (%v), want the first alone", n, sources)
	}
	if n := m.RowsScanned.Load(); n != 10 {
		t.Errorf("scanned %d rows, want 10", n)
	}
	if n := m.Parse.Docs.Load(); n > 10 {
		t.Errorf("parsed %d documents, want at most 10", n)
	}

	// A split starts once the one before it has read its first batch, and
	// that batch holds the LIMIT: at any parallelism the work is the same.
	par := limitEngine(t, 10, 100, WithParallelism(4))
	prs, pm, psources := explainLimit(t, par, sql)
	if prs.String() != rs.String() {
		t.Errorf("parallelism 4 returned\n%s\nwant\n%s", prs, rs)
	}
	if n := opened(psources); n != 1 || pm.RowsScanned.Load() != 10 {
		t.Errorf("parallelism 4 opened %d splits (%v) and scanned %d rows, want 1 and 10", n, psources, pm.RowsScanned.Load())
	}
}

// TestLimitedJoinStopsTheProbe: a join returns a varying number of rows per
// probe row, so the probe side reads whole batches, and stops in the batch
// in which the LIMIT's last joined row is made. The build side is read whole.
func TestLimitedJoinStopsTheProbe(t *testing.T) {
	e := limitEngine(t, 10, 100, WithParallelism(2))
	const join = `SELECT x.id, get_json_object(y.doc, '$.a') a FROM db.t x JOIN db.t y ON x.id = y.id`
	all := mustQuery(t, e, join)
	rs, m, err := e.QueryCtx(context.Background(), join+` LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rs.String(), (&ResultSet{Columns: all.Columns, Rows: all.Rows[:5]}).String(); got != want {
		t.Errorf("rows:\n%s\nwant the first five of the unlimited join:\n%s", got, want)
	}
	if n := m.RowsScanned.Load(); n != 1000+100 {
		t.Errorf("scanned %d rows, want the build side's 1000 and the first probe split's 100", n)
	}
}

// TestLimitZeroReadsNothing: LIMIT 0 opens no split, so it reads no byte, and
// a join under it builds no hash table.
func TestLimitZeroReadsNothing(t *testing.T) {
	e := limitEngine(t, 3, 20)
	for _, sql := range []string{
		`SELECT get_json_object(doc, '$.a') a FROM db.t LIMIT 0`,
		`SELECT x.id FROM db.t x JOIN db.t y ON x.id = y.id LIMIT 0`,
	} {
		rs, m, err := e.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 0 || m.BytesRead.Load() != 0 || m.RowsScanned.Load() != 0 || m.Batches.Load() != 0 {
			t.Errorf("%s: %d rows, read %d bytes and %d rows in %d batches; want none",
				sql, len(rs.Rows), m.BytesRead.Load(), m.RowsScanned.Load(), m.Batches.Load())
		}
	}
}

// TestFilteredLimitStopsAtTheBatch: with a WHERE the scan cannot know how
// many rows will pass, so it reads whole batches, and stops in the batch in
// which the LIMIT's last row passes. Every third row passes here; the 10th to
// pass is row 27, in the second batch of 16.
func TestFilteredLimitStopsAtTheBatch(t *testing.T) {
	e := limitEngine(t, 4, 100, WithParallelism(1), WithBatchSize(16))
	rs, m, err := e.QueryCtx(context.Background(),
		`SELECT id FROM db.t WHERE cast_bigint(get_json_object(doc, '$.a')) % 3 = 0 LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 10 || rs.Rows[9][0].I != 27 {
		t.Fatalf("rows = %v, want ids 0, 3, …, 27", rs.Rows)
	}
	if n, b := m.RowsScanned.Load(), m.Batches.Load(); n != 32 || b != 2 {
		t.Errorf("scanned %d rows in %d batches, want 32 in 2", n, b)
	}
	if n := m.Parse.Docs.Load(); n != 32 {
		t.Errorf("parsed %d documents, want the 32 of the two batches", n)
	}
}

// TestLimitProjectionAllocations pins what small_fixed's LIMIT statement
// costs: a LIMIT 10 projection of two paths over one 64-row split, 128
// allocations and 8.2 kB per query when written. Before the scan stopped at
// the LIMIT it read, extracted and materialised all 64 rows: 134 allocations
// and 23.4 kB on the same shape. Most allocations are the statement's parse
// and plan, which a LIMIT does not touch.
func TestLimitProjectionAllocations(t *testing.T) {
	leakcheck.SkipUnderRace(t)
	const (
		sql  = `SELECT get_json_object(doc, '$.a') a, get_json_object(doc, '$.pad') p FROM db.t LIMIT 10`
		runs = 100
	)
	e := limitEngine(t, 1, 64, WithParallelism(1))
	if rs := mustQuery(t, e, sql); len(rs.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rs.Rows))
	}
	allocs := testing.AllocsPerRun(runs, func() { mustQuery(t, e, sql) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mustQuery(t, e, sql)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f allocations and %.0f B per query", allocs, bytes)
	if allocs > 135 {
		t.Errorf("a LIMIT 10 projection allocates %.0f times per query, want at most 135", allocs)
	}
	// 12 kB leaves room for the pooled scan batch, some 100 kB, rebuilt once
	// in the runs after a collection emptied the pool.
	if bytes > 12<<10 {
		t.Errorf("a LIMIT 10 projection allocates %.0f B per query, want at most %d", bytes, 12<<10)
	}
}

// TestJoinSplitOwedNothingReturnsNothing: above parallelism one, the splits
// before a split can emit the rows its LIMIT needs after the split was let
// start and before it reads its first batch. Such a split owes no row; it
// returns none and reads nothing, as one the LIMIT skipped.
func TestJoinSplitOwedNothingReturnsNothing(t *testing.T) {
	e := limitEngine(t, 2, 20, WithParallelism(1))
	stmt, err := Parse(`SELECT x.id, y.id FROM db.t x JOIN db.t y ON x.id = y.id LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	table, width, err := e.buildJoinTable(ctx, plan, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	stop := newLimitStop(5, 2)
	stop.emitted(0, 5) // split 0 holds the LIMIT's rows before split 1 starts
	var w scanWorker
	defer w.release()
	m := &Metrics{}
	res := e.runPartition(ctx, &w, plan, NewSplitReader(e.wh, plan.Scan, e.backend), 1, table, width, stop, m)
	if res.err != nil || len(res.rows) != 0 || m.RowsScanned.Load() != 0 {
		t.Errorf("split 1 returned %d rows (err %v) and scanned %d, want none", len(res.rows), res.err, m.RowsScanned.Load())
	}
}
