package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/testbed"
)

// twoTableEngine builds a warehouse with orders and items tables for join
// edge cases.
func twoTableEngine(t *testing.T) *Engine {
	t.Helper()
	orders := testbed.Table{DB: "db", Name: "orders", Schema: orc.Schema{Columns: []orc.Column{
		{Name: "id", Type: datum.TypeInt64},
		{Name: "item_id", Type: datum.TypeInt64},
		{Name: "payload", Type: datum.TypeString},
	}}}
	items := testbed.Table{DB: "db", Name: "items", Schema: orc.Schema{Columns: []orc.Column{
		{Name: "item_id", Type: datum.TypeInt64},
		{Name: "name", Type: datum.TypeString},
	}}}
	var orows [][]datum.Datum
	for i := 0; i < 12; i++ {
		orows = append(orows, []datum.Datum{
			datum.Int(int64(i)),
			datum.Int(int64(i % 4)),
			datum.Str(fmt.Sprintf(`{"qty":%d}`, i+1)),
		})
	}
	var irows [][]datum.Datum
	for i := 0; i < 4; i++ {
		irows = append(irows, []datum.Datum{
			datum.Int(int64(i)),
			datum.Str(fmt.Sprintf("item-%d", i)),
		})
	}
	// NULL join key: never matches.
	irows = append(irows, []datum.Datum{datum.NullOf(datum.TypeInt64), datum.Str("ghost")})
	orders.Parts, items.Parts = [][][]datum.Datum{orows}, [][][]datum.Datum{irows}
	bed := testbed.New(testbed.Config{})
	if err := bed.Load(0, orders, items); err != nil {
		t.Fatal(err)
	}
	return NewEngine(bed.WH, WithDefaultDB("db"))
}

func TestJoinTwoTables(t *testing.T) {
	e := twoTableEngine(t)
	rs := mustQuery(t, e, `
		SELECT o.id, i.name, get_json_object(o.payload, '$.qty') q
		FROM db.orders o JOIN db.items i ON o.item_id = i.item_id
		ORDER BY o.id LIMIT 3`)
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[1][1].S != "item-1" || rs.Rows[1][2].S != "2" {
		t.Errorf("row = %v", rs.Rows[1])
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	e := twoTableEngine(t)
	rs := mustQuery(t, e, `
		SELECT COUNT(*) c FROM db.orders o JOIN db.items i ON o.item_id = i.item_id`)
	if rs.Rows[0][0].I != 12 {
		t.Errorf("join count = %v, want 12 (ghost row must not match)", rs.Rows[0][0])
	}
}

func TestJoinAmbiguousColumnRejected(t *testing.T) {
	e := twoTableEngine(t)
	if _, _, err := e.QueryCtx(context.Background(), `
		SELECT item_id FROM db.orders o JOIN db.items i ON o.item_id = i.item_id`); err == nil {
		t.Error("ambiguous item_id should error")
	}
}

func TestJoinAggregateOverBothSides(t *testing.T) {
	e := twoTableEngine(t)
	rs := mustQuery(t, e, `
		SELECT i.name n, COUNT(*) c, SUM(cast_double(get_json_object(o.payload, '$.qty'))) s
		FROM db.orders o JOIN db.items i ON o.item_id = i.item_id
		GROUP BY i.name ORDER BY n`)
	if len(rs.Rows) != 4 {
		t.Fatalf("groups = %v", rs.Rows)
	}
	// item-0 matches orders 0,4,8 → qty 1+5+9 = 15.
	if rs.Rows[0][0].S != "item-0" || rs.Rows[0][1].I != 3 || rs.Rows[0][2].F != 15 {
		t.Errorf("group 0 = %v", rs.Rows[0])
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := newTestEngine(t)
	// NULL OR TRUE = TRUE; NULL AND TRUE = NULL (not true).
	rs := mustQuery(t, e, `
		SELECT COUNT(*) c FROM mydb.t
		WHERE get_json_object(sale_logs, '$.absent') > 5 OR date = '20190101'`)
	if rs.Rows[0][0].I != 1 {
		t.Errorf("NULL OR TRUE count = %v, want 1", rs.Rows[0][0])
	}
	rs = mustQuery(t, e, `
		SELECT COUNT(*) c FROM mydb.t
		WHERE get_json_object(sale_logs, '$.absent') > 5 AND date = '20190101'`)
	if rs.Rows[0][0].I != 0 {
		t.Errorf("NULL AND TRUE count = %v, want 0", rs.Rows[0][0])
	}
	rs = mustQuery(t, e, `
		SELECT COUNT(*) c FROM mydb.t WHERE NOT (date = '20190101')`)
	if rs.Rows[0][0].I != 30 {
		t.Errorf("NOT count = %v, want 30", rs.Rows[0][0])
	}
}

func TestCountExprSkipsNulls(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT COUNT(get_json_object(sale_logs, '$.absent')) a,
		       COUNT(get_json_object(sale_logs, '$.turnover')) b,
		       COUNT(*) c
		FROM mydb.t`)
	row := rs.Rows[0]
	if row[0].I != 0 || row[1].I != 31 || row[2].I != 31 {
		t.Errorf("counts = %v", row)
	}
}

func TestDistinctWithOrderByAndLimit(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT DISTINCT get_json_object(sale_logs, '$.sale_count') sc
		FROM mydb.t ORDER BY cast_bigint(get_json_object(sale_logs, '$.sale_count')) DESC LIMIT 3`)
	if len(rs.Rows) != 3 || rs.Rows[0][0].S != "7" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestMultipleOrderKeys(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT mall_id, date FROM mydb.t ORDER BY mall_id ASC, date DESC LIMIT 2`)
	if rs.Rows[0][1].S != "20190131" || rs.Rows[1][1].S != "20190130" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT cast_bigint(get_json_object(sale_logs, '$.absent')) + 1 v
		FROM mydb.t LIMIT 1`)
	if !rs.Rows[0][0].Null {
		t.Errorf("NULL + 1 = %v, want NULL", rs.Rows[0][0])
	}
	rs = mustQuery(t, e, `SELECT 10 / 0 v FROM mydb.t LIMIT 1`)
	if !rs.Rows[0][0].Null {
		t.Errorf("division by zero = %v, want NULL", rs.Rows[0][0])
	}
	rs = mustQuery(t, e, `SELECT 7 % 3 v, -5 u FROM mydb.t LIMIT 1`)
	if rs.Rows[0][0].I != 1 || rs.Rows[0][1].I != -5 {
		t.Errorf("mod/neg = %v", rs.Rows[0])
	}
}

func TestParenthesizedPrecedence(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `SELECT (1 + 2) * 3 a, 1 + 2 * 3 b FROM mydb.t LIMIT 1`)
	if rs.Rows[0][0].I != 9 || rs.Rows[0][1].I != 7 {
		t.Errorf("precedence = %v", rs.Rows[0])
	}
}

func TestLimitZeroAndOversized(t *testing.T) {
	e := newTestEngine(t)
	if rs := mustQuery(t, e, `SELECT date FROM mydb.t LIMIT 0`); len(rs.Rows) != 0 {
		t.Errorf("LIMIT 0 rows = %d", len(rs.Rows))
	}
	if rs := mustQuery(t, e, `SELECT date FROM mydb.t LIMIT 10000`); len(rs.Rows) != 31 {
		t.Errorf("oversized LIMIT rows = %d", len(rs.Rows))
	}
}

func TestStringFunctionsAndConcat(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT concat(mall_id, '-', date) cd, lower(upper(mall_id)) m
		FROM mydb.t WHERE date = '20190102'`)
	if rs.Rows[0][0].S != "0001-20190102" || rs.Rows[0][1].S != "0001" {
		t.Errorf("rows = %v", rs.Rows[0])
	}
}

func TestCommentAndWhitespaceTolerance(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		-- leading comment
		SELECT date -- trailing comment
		FROM mydb.t  WHERE  date='20190103'`)
	if len(rs.Rows) != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestEscapedStringLiterals(t *testing.T) {
	toks, err := Lex(`SELECT 'it''s' , "dq\"esc"`)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tok := range toks {
		if tok.Kind == TokString {
			strs = append(strs, tok.Text)
		}
	}
	if len(strs) != 2 || strs[0] != "it's" || strs[1] != `dq"esc` {
		t.Errorf("strings = %q", strs)
	}
}

func TestPlanStringContainsJoin(t *testing.T) {
	e := twoTableEngine(t)
	plan, _, err := e.PlanOnly(`
		SELECT o.id FROM db.orders o JOIN db.items i ON o.item_id = i.item_id LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "HashJoin build=db.items") {
		t.Errorf("plan missing join:\n%s", plan.String())
	}
}

func TestConcurrentQueries(t *testing.T) {
	e := newTestEngine(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			_, _, err := e.QueryCtx(context.Background(), fmt.Sprintf(
				`SELECT get_json_object(sale_logs, '$.turnover') FROM mydb.t WHERE date = '201901%02d'`, i+1))
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	e := newTestEngine(t)
	// sale_count groups have sizes 4 or 5 (31 days, values 1..7).
	rs := mustQuery(t, e, `
		SELECT get_json_object(sale_logs, '$.sale_count') sc, COUNT(*) c
		FROM mydb.t
		GROUP BY get_json_object(sale_logs, '$.sale_count')
		HAVING COUNT(*) > 4
		ORDER BY sc`)
	for _, row := range rs.Rows {
		if row[1].I <= 4 {
			t.Errorf("HAVING leaked group %v", row)
		}
	}
	if len(rs.Rows) == 0 || len(rs.Rows) >= 7 {
		t.Errorf("HAVING groups = %d, want a strict subset", len(rs.Rows))
	}
}

func TestHavingWithUnprojectedAggregate(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT mall_id FROM mydb.t
		GROUP BY mall_id
		HAVING SUM(cast_double(get_json_object(sale_logs, '$.turnover'))) > 1000`)
	if len(rs.Rows) != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
	rs = mustQuery(t, e, `
		SELECT mall_id FROM mydb.t GROUP BY mall_id
		HAVING SUM(cast_double(get_json_object(sale_logs, '$.turnover'))) > 1000000`)
	if len(rs.Rows) != 0 {
		t.Errorf("rows = %v, want none", rs.Rows)
	}
}

func TestInList(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT date FROM mydb.t WHERE date IN ('20190103', '20190105', '20250101') ORDER BY date`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "20190103" || rs.Rows[1][0].S != "20190105" {
		t.Errorf("rows = %v", rs.Rows)
	}
	rs = mustQuery(t, e, `
		SELECT COUNT(*) c FROM mydb.t WHERE date NOT IN ('20190101')`)
	if rs.Rows[0][0].I != 30 {
		t.Errorf("NOT IN count = %v", rs.Rows[0][0])
	}
}

func TestLikePatterns(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		pattern string
		want    int64
	}{
		{"201901%", 31},
		{"%31", 1},
		{"2019013_", 2}, // 30, 31
		{"%019__3%", 2}, // '3' six chars after "019" → days 30, 31
		{"nope", 0},
		{"20190102", 1},
	}
	for _, c := range cases {
		rs := mustQuery(t, e, fmt.Sprintf(
			`SELECT COUNT(*) n FROM mydb.t WHERE date LIKE '%s'`, c.pattern))
		if rs.Rows[0][0].I != c.want {
			t.Errorf("LIKE %q = %v, want %d", c.pattern, rs.Rows[0][0], c.want)
		}
	}
	rs := mustQuery(t, e, `SELECT COUNT(*) n FROM mydb.t WHERE date NOT LIKE '201901%'`)
	if rs.Rows[0][0].I != 0 {
		t.Errorf("NOT LIKE = %v", rs.Rows[0][0])
	}
	// LIKE on NULL input is not true.
	rs = mustQuery(t, e, `
		SELECT COUNT(*) n FROM mydb.t WHERE get_json_object(sale_logs, '$.absent') LIKE '%'`)
	if rs.Rows[0][0].I != 0 {
		t.Errorf("LIKE on NULL = %v", rs.Rows[0][0])
	}
}

func TestNotBetween(t *testing.T) {
	e := newTestEngine(t)
	rs := mustQuery(t, e, `
		SELECT COUNT(*) n FROM mydb.t WHERE date NOT BETWEEN '20190102' AND '20190130'`)
	if rs.Rows[0][0].I != 2 {
		t.Errorf("NOT BETWEEN = %v, want 2", rs.Rows[0][0])
	}
}

func TestWildcardPathsInQueries(t *testing.T) {
	bed := testbed.New(testbed.Config{})
	if err := bed.Load(0, testbed.Table{DB: "db", Name: "t", Schema: orc.Schema{Columns: []orc.Column{{Name: "doc", Type: datum.TypeString}}},
		Parts: [][][]datum.Datum{{
			{datum.Str(`{"items":[{"qty":1},{"qty":2}]}`)},
			{datum.Str(`{"items":[{"qty":7}]}`)},
		}}}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(bed.WH, WithDefaultDB("db"))
	rs, _, err := e.QueryCtx(context.Background(), `SELECT get_json_object(doc, '$.items[*].qty') q FROM db.t`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].S != "[1,2]" || rs.Rows[1][0].S != "7" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestExplainRendersPlan(t *testing.T) {
	e := newTestEngine(t)
	rs, m, err := e.QueryCtx(context.Background(), `EXPLAIN SELECT date FROM mydb.t WHERE date > '20190110' LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	text := rs.String()
	for _, want := range []string{"Limit 5", "Filter", "Scan mydb.t", "sarg"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	// EXPLAIN must not execute: no bytes read.
	if m.BytesRead.Load() != 0 {
		t.Errorf("EXPLAIN read %d bytes", m.BytesRead.Load())
	}
}
