package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/testbed"
)

// newTestEngine builds a warehouse with the paper's Fig 1 sale-logs table:
// 31 days of data across several part files, JSON payloads in sale_logs.
func newTestEngine(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
	bed := testbed.New(testbed.Config{RowGroupRows: 8})
	if err := bed.Load(24*time.Hour, testbed.SaleLogs(func(day int) string {
		return fmt.Sprintf(`{"item_id":%d,"item_name":"item-%02d","sale_count":%d,"turnover":%d,"price":%d,"nested":{"deep":{"v":%d}}}`,
			day, day, day%7+1, day*10, day%5+1, day*100)
	})); err != nil {
		t.Fatal(err)
	}
	return NewEngine(bed.WH, append([]EngineOption{WithDefaultDB("mydb")}, opts...)...)
}

func mustQuery(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	rs, _, err := e.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func TestSimpleSelect(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, "SELECT mall_id, date FROM mydb.t LIMIT 3")
	if len(rs.Rows) != 3 || len(rs.Columns) != 2 {
		t.Fatalf("result = %+v", rs)
	}
	if rs.Columns[0] != "mall_id" || rs.Rows[0][1].S != "20190101" {
		t.Errorf("row0 = %v", rs.Rows[0])
	}
}

func TestGetJSONObjectProjection(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT get_json_object(sale_logs, '$.item_name') AS item_name,
		       get_json_object(sale_logs, '$.turnover') AS turnover
		FROM mydb.t
		WHERE date = '20190105'`)
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Rows[0][0].S != "item-05" || rs.Rows[0][1].S != "50" {
		t.Errorf("row = %v", rs.Rows[0])
	}
}

func TestNestedJSONPath(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT get_json_object(sale_logs, '$.nested.deep.v') v
		FROM mydb.t WHERE date = '20190103'`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "300" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestMissingJSONPathIsNull(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT get_json_object(sale_logs, '$.absent') a
		FROM mydb.t WHERE date = '20190101'`)
	if len(rs.Rows) != 1 || !rs.Rows[0][0].Null {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestWhereBetweenAndOrderByLimit(t *testing.T) {
	e := newTestEngine(t)
	// The paper's Fig 1 query shape: 3-day window, top turnover.
	rs := mustQuery(t, e, `
		SELECT mall_id,
		       get_json_object(sale_logs, '$.item_id') AS item_id,
		       get_json_object(sale_logs, '$.turnover') AS turnover
		FROM mydb.t
		WHERE date BETWEEN '20190101' AND '20190103'
		ORDER BY get_json_object(sale_logs, '$.turnover') DESC
		LIMIT 1`)
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Rows[0][2].S != "30" {
		t.Errorf("top turnover = %v, want 30", rs.Rows[0])
	}
}

func TestOrderByNumericStringsComparesNumerically(t *testing.T) {
	e := newTestEngine(t)
	// turnover values 10..310; lexicographic order would put "100" < "20".
	rs := mustQuery(t, e, `
		SELECT get_json_object(sale_logs, '$.turnover') tv
		FROM mydb.t
		ORDER BY cast_double(get_json_object(sale_logs, '$.turnover')) DESC
		LIMIT 2`)
	if rs.Rows[0][0].S != "310" || rs.Rows[1][0].S != "300" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestOrderByAlias(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT date d FROM mydb.t ORDER BY d DESC LIMIT 1`)
	if rs.Rows[0][0].S != "20190131" {
		t.Errorf("row = %v", rs.Rows[0])
	}
}

func TestGroupByCount(t *testing.T) {
	e := newTestEngine(t)
	// sale_count = day%7+1, so counts per value bucket are deterministic.
	rs := mustQuery(t, e, `
		SELECT get_json_object(sale_logs, '$.sale_count') sc, COUNT(*) c
		FROM mydb.t
		GROUP BY get_json_object(sale_logs, '$.sale_count')
		ORDER BY sc`)
	if len(rs.Rows) != 7 {
		t.Fatalf("groups = %d, want 7: %v", len(rs.Rows), rs.Rows)
	}
	total := int64(0)
	for _, row := range rs.Rows {
		total += row[1].I
	}
	if total != 31 {
		t.Errorf("counts sum to %d, want 31", total)
	}
}

func TestAggregatesSumMinMaxAvg(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT COUNT(*) c,
		       SUM(cast_double(get_json_object(sale_logs, '$.turnover'))) s,
		       MIN(date) lo,
		       MAX(date) hi,
		       AVG(cast_double(get_json_object(sale_logs, '$.price'))) a
		FROM mydb.t`)
	row := rs.Rows[0]
	if row[0].I != 31 {
		t.Errorf("count = %v", row[0])
	}
	// sum of day*10 for 1..31 = 4960.
	if row[1].F != 4960 {
		t.Errorf("sum = %v", row[1])
	}
	if row[2].S != "20190101" || row[3].S != "20190131" {
		t.Errorf("min/max = %v %v", row[2], row[3])
	}
	if row[4].F <= 0 {
		t.Errorf("avg = %v", row[4])
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT COUNT(*) c FROM mydb.t WHERE date = '20250101'`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 0 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSelfJoin(t *testing.T) {
	e := newTestEngine(t)
	// Self-equijoin on date: each row matches itself only (dates unique).
	rs := mustQuery(t, e, `
		SELECT COUNT(*) c
		FROM mydb.t a JOIN mydb.t b ON a.date = b.date`)
	if rs.Rows[0][0].I != 31 {
		t.Errorf("join count = %v, want 31", rs.Rows[0][0])
	}
}

func TestJoinProjectionBothSides(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT a.date, get_json_object(b.sale_logs, '$.item_id') id
		FROM mydb.t a JOIN mydb.t b ON a.date = b.date
		WHERE a.date = '20190102'`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "20190102" || rs.Rows[0][1].S != "2" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestJSONPredicateInWhere(t *testing.T) {
	e := newTestEngine(t)
	// The Fig 8 shape: predicate on a JSON path compared numerically.
	rs := mustQuery(t, e, `
		SELECT date FROM mydb.t
		WHERE get_json_object(sale_logs, '$.turnover') > 290
		ORDER BY date`)
	if len(rs.Rows) != 2 { // turnover 300, 310
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0].S != "20190130" {
		t.Errorf("first = %v", rs.Rows[0])
	}
}

func TestDistinct(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT DISTINCT mall_id FROM mydb.t`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "0001" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT * FROM mydb.t LIMIT 1`)
	if len(rs.Columns) != 3 {
		t.Errorf("columns = %v", rs.Columns)
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT cast_bigint(get_json_object(sale_logs, '$.turnover')) * 2 + 1 AS v,
		       upper(get_json_object(sale_logs, '$.item_name')) AS u,
		       length(date) AS l
		FROM mydb.t WHERE date = '20190104'`)
	row := rs.Rows[0]
	if row[0].I != 81 {
		t.Errorf("v = %v", row[0])
	}
	if row[1].S != "ITEM-04" {
		t.Errorf("u = %v", row[1])
	}
	if row[2].I != 8 {
		t.Errorf("l = %v", row[2])
	}
}

func TestIsNullOperators(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT COUNT(*) c FROM mydb.t
		WHERE get_json_object(sale_logs, '$.absent') IS NULL`)
	if rs.Rows[0][0].I != 31 {
		t.Errorf("IS NULL count = %v", rs.Rows[0][0])
	}
	rs = mustQuery(t, e, `
		SELECT COUNT(*) c FROM mydb.t
		WHERE get_json_object(sale_logs, '$.turnover') IS NOT NULL`)
	if rs.Rows[0][0].I != 31 {
		t.Errorf("IS NOT NULL count = %v", rs.Rows[0][0])
	}
}

func TestSARGPushdownSkipsRowGroups(t *testing.T) {
	e := newTestEngine(t)
	_, m, err := e.QueryCtx(context.Background(), `SELECT date FROM mydb.t WHERE date = '20190131'`)
	if err != nil {
		t.Fatal(err)
	}
	if m.RowGroupsSkipped.Load() == 0 {
		t.Error("expected row groups skipped via date SARG")
	}
}

func TestMetricsPhases(t *testing.T) {
	e := newTestEngine(t)
	_, m, err := e.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.item_id') FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	pc := m.Parse.Snapshot()
	if pc.Docs != 31 || pc.Calls != 31 {
		t.Errorf("parse counts = %+v", pc)
	}
	if m.BytesRead.Load() == 0 || m.RowOps.Load() == 0 {
		t.Errorf("metrics = read %d, rowops %d", m.BytesRead.Load(), m.RowOps.Load())
	}
}

func TestJacksonMemoizesDocPerRow(t *testing.T) {
	e := newTestEngine(t)
	// Two paths on the same doc: one parse per row, two calls per row.
	_, m, err := e.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.item_id') a,
		       get_json_object(sale_logs, '$.item_name') b
		FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	pc := m.Parse.Snapshot()
	if pc.Docs != 31 {
		t.Errorf("docs parsed = %d, want 31 (memoized)", pc.Docs)
	}
	if pc.Calls != 62 {
		t.Errorf("calls = %d, want 62", pc.Calls)
	}
}

func TestStreamBackendMetersSkippedBytes(t *testing.T) {
	e := newTestEngine(t)
	_, m, err := e.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.item_id') a FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	pc := m.Parse.Snapshot()
	if pc.Skipped <= 0 {
		t.Errorf("Parse.Skipped = %d, want > 0 (early exit should skip bytes)", pc.Skipped)
	}
	if pc.Bytes <= 0 {
		t.Errorf("Parse.Bytes = %d, want > 0", pc.Bytes)
	}
}

// TestRootProjectionStreams pins that $ is a path like any other: it is
// answered by the same streaming pass (there is no other lane to fall to),
// which has to scan every byte of every document to materialize it.
func TestRootProjectionStreams(t *testing.T) {
	e := newTestEngine(t)
	docs := mustQuery(t, e, `SELECT sale_logs FROM mydb.t`)
	var docBytes int64
	for _, row := range docs.Rows {
		docBytes += int64(len(row[0].S))
	}
	rs, m, err := e.QueryCtx(context.Background(), `SELECT get_json_object(sale_logs, '$') d FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	pc := m.Parse.Snapshot()
	if pc.Docs != int64(len(docs.Rows)) || pc.Bytes != docBytes || pc.Skipped != 0 {
		t.Errorf("root projection parsed %d docs / %d B (%d skipped), want %d docs / %d B (0 skipped)",
			pc.Docs, pc.Bytes, pc.Skipped, len(docs.Rows), docBytes)
	}
	for i, row := range rs.Rows {
		if row[0].S != docs.Rows[i][0].S {
			t.Errorf("row %d: $ = %s, want the document %s", i, row[0].S, docs.Rows[i][0].S)
		}
	}
}

func TestJSONPathsCollection(t *testing.T) {
	stmt, err := Parse(`
		SELECT get_json_object(a, '$.x') FROM db.t
		WHERE get_json_object(a, '$.y') > 1
		GROUP BY get_json_object(a, '$.x')
		ORDER BY get_json_object(a, '$.z')`)
	if err != nil {
		t.Fatal(err)
	}
	paths := stmt.JSONPaths()
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(paths))
	}
	want := []string{"$.x", "$.y", "$.x", "$.z"}
	for i, p := range paths {
		if p.Path.String() != want[i] {
			t.Errorf("path %d = %s, want %s", i, p.Path.String(), want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT FROM t", "SELECT a FROM", "SELECT a t", // trailing ident consumed as alias then FROM missing
		"SELECT a FROM db.t WHERE", "SELECT a FROM t GROUP", "SELECT a FROM t LIMIT x",
		"SELECT get_json_object(a) FROM t", "SELECT get_json_object(a, 2) FROM t",
		"SELECT get_json_object(a, 'bad path') FROM t",
		"SELECT count(a, b) FROM t", "SELECT a FROM t ORDER", "SELECT 'unterminated FROM t",
		"SELECT a FROM t JOIN u ON a.x > u.y", "SELECT a FROM t extra garbage here",
	}
	e := newTestEngine(t)
	for _, sql := range bad {
		if _, _, err := e.QueryCtx(context.Background(), sql); err == nil {
			t.Errorf("Query(%q) succeeded, want error", sql)
		}
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := e.QueryCtx(context.Background(), "SELECT a FROM mydb.nope"); err == nil {
		t.Error("unknown table should error")
	}
	if _, _, err := e.QueryCtx(context.Background(), "SELECT no_col FROM mydb.t"); err == nil {
		t.Error("unknown column should error")
	}
	if _, _, err := e.QueryCtx(context.Background(), "SELECT date FROM mydb.t GROUP BY mall_id"); err == nil {
		t.Error("non-grouped column in projection should error")
	}
}

func TestPlanOutline(t *testing.T) {
	e := newTestEngine(t)
	plan, _, err := e.PlanOnly(`
		SELECT get_json_object(sale_logs, '$.item_id') i
		FROM mydb.t WHERE date > '20190110' ORDER BY i LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	for _, want := range []string{"Limit 5", "Sort", "Filter", "Scan mydb.t", "sarg=(date > 20190110)"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan outline missing %q:\n%s", want, out)
		}
	}
}

func TestColumnPruning(t *testing.T) {
	e := newTestEngine(t)
	plan, _, err := e.PlanOnly(`SELECT date FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Scan.Columns) != 1 || plan.Scan.Columns[0] != "date" {
		t.Errorf("scan columns = %v, want [date]", plan.Scan.Columns)
	}
}

func TestPlanNodesCounted(t *testing.T) {
	e := newTestEngine(t)
	_, m, err := e.PlanOnly(`SELECT get_json_object(sale_logs, '$.a') FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if m.PlanExprNodes == 0 {
		t.Error("PlanExprNodes not counted")
	}
}

func TestDeterministicResultOrderWithoutSort(t *testing.T) {
	e := newTestEngine(t)
	first := mustQuery(t, e, `SELECT date FROM mydb.t`).String()
	for i := 0; i < 5; i++ {
		if got := mustQuery(t, e, `SELECT date FROM mydb.t`).String(); got != first {
			t.Fatal("result order varies across runs without ORDER BY")
		}
	}
}

// TestPlanExtractsEveryCall pins the plan shape every get_json_object call
// takes: one Extract entry, and one schema column after the scan's own, per
// distinct (document column, path), aliased spellings and repeated calls
// sharing it; every call site an ExtractRef bound to its column; the
// document columns still read. A plan without calls extracts nothing and
// meters no parse work.
func TestPlanExtractsEveryCall(t *testing.T) {
	e := newTestEngine(t)
	plan, _, err := e.PlanOnly(`
		SELECT get_json_object(sale_logs, '$.turnover') tv,
		       get_json_object(t.sale_logs, '$["turnover"]') alias,
		       get_json_object(sale_logs, '$') doc,
		       get_json_object(mall_id, '$.x') other
		FROM mydb.t
		WHERE get_json_object(sale_logs, '$.turnover') > 100`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, x := range plan.Scan.Extract {
		texts = append(texts, x.Column+":"+x.Path.Canonical())
	}
	if got := strings.Join(texts, " "); got != "sale_logs:$.turnover sale_logs:$ mall_id:$.x" {
		t.Errorf("extract list = %q", got)
	}
	cols := plan.Scan.Schema().Cols
	if got := fmt.Sprint(plan.Scan.Columns); got != "[mall_id sale_logs]" {
		t.Errorf("scan columns = %s, want the two document columns", got)
	}
	if len(cols) != len(plan.Scan.Columns)+len(plan.Scan.Extract) {
		t.Fatalf("schema has %d columns for %d read and %d extracted", len(cols), len(plan.Scan.Columns), len(plan.Scan.Extract))
	}
	refs := 0
	VisitPlanExprs(plan, func(x Expr) {
		switch n := x.(type) {
		case *JSONPathExpr:
			t.Errorf("call %s left in the plan", n)
		case *ExtractRef:
			refs++
			c := cols[n.index]
			if !c.Extracted || c.Path != n.Call.Path.Canonical() || !strings.EqualFold(c.Name, n.Call.Column.Name) {
				t.Errorf("call %s bound to column %+v", n, c)
			}
		}
	})
	if refs != 5 {
		t.Errorf("call sites = %d, want 5", refs)
	}

	plain, _, err := e.PlanOnly(`SELECT COUNT(*) c FROM mydb.t WHERE date > '20190110'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Scan.Extract) != 0 {
		t.Errorf("plan without get_json_object extracts %+v", plain.Scan.Extract)
	}
	_, m, err := e.QueryCtx(context.Background(), `SELECT COUNT(*) c FROM mydb.t WHERE date > '20190110'`)
	if err != nil {
		t.Fatal(err)
	}
	if pc := m.Parse.Snapshot(); pc != (ParseCounts{}) {
		t.Errorf("plan without get_json_object metered parse work: %+v", pc)
	}
}
