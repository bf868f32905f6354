package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/pathkey"
)

func TestPlanModQualifierMismatchNotReplaced(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// Self-join where only side "a" references the cached path via its own
	// qualifier: both sides resolve to the same table, so both scans may be
	// modified — but results must stay correct either way.
	rs, _, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(a.sale_logs, '$.turnover') tv
		FROM mydb.t a JOIN mydb.t b ON a.date = b.date
		WHERE a.date = '20190110'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "100" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestPlanModLiteralOnLeftPushdown(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// Mirrored comparison: literal < placeholder.
	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.turnover') tv
		FROM mydb.t
		WHERE 300 < get_json_object(sale_logs, '$.turnover')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "310" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if metrics.RowGroupsSkipped.Load() == 0 {
		t.Error("mirrored predicate should still push down")
	}
}

func TestPlanModORPredicateNotPushedDown(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover", "$.item_id")
	// OR disjuncts must not become SARGs (only AND-conjuncts are safe).
	rs, _, err := m.QueryCtx(context.Background(), `
		SELECT date FROM mydb.t
		WHERE get_json_object(sale_logs, '$.turnover') > 300
		   OR get_json_object(sale_logs, '$.item_id') = 1
		ORDER BY date`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 { // item 1 (day 1) and turnover 310 (day 31)
		t.Fatalf("rows = %v", rs.Rows)
	}
}

// TestPlanModInvalidEntrySkipped: every raw part rewritten — with the rows it
// already held, so only the versions say so — leaves the entry in the
// registry but no split it serves.
func TestPlanModInvalidEntrySkipped(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	info, err := f.wh.Table("mydb", "t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := f.wh.ReadAll("mydb", "t", []string{"mall_id", "date", "sale_logs"})
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range info.Files {
		from, to := 10*i, 10*i+10
		if i == len(info.Files)-1 {
			to = len(rows)
		}
		if err := f.wh.RewriteFile("mydb", "t", part, rows[from:to]); err != nil {
			t.Fatal(err)
		}
	}
	key := pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"}
	if m.Registry.Lookup(key) == nil {
		t.Fatal("rewrites dropped the entry")
	}
	_, metrics, err := m.QueryCtx(context.Background(), `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.CacheValuesRead.Load() != 0 {
		t.Error("an entry served values for rewritten parts")
	}
	if metrics.Parse.Docs.Load() != 31 {
		t.Errorf("expected full parse fallback, parsed %d", metrics.Parse.Docs.Load())
	}
}

func TestPlanModUncachedPathUntouched(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// Query touching only uncached paths runs the normal plan.
	_, metrics, err := m.QueryCtx(context.Background(), `SELECT get_json_object(sale_logs, '$.price') p FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.CacheValuesRead.Load() != 0 {
		t.Error("uncached query read cache values")
	}
	if metrics.Parse.Docs.Load() != 31 {
		t.Errorf("parsed %d docs, want 31", metrics.Parse.Docs.Load())
	}
}

func TestPlanModMixedCachedUncachedSameColumn(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// turnover cached, price not: the JSON column must stay in the primary
	// read set to serve the uncached path.
	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.turnover') tv,
		       get_json_object(sale_logs, '$.price') p
		FROM mydb.t WHERE date = '20190104'`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].S != "40" || rs.Rows[0][1].S != "5" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if metrics.CacheValuesRead.Load() == 0 || metrics.Parse.Docs.Load() == 0 {
		t.Errorf("expected mixed serving: cache=%d parse=%d",
			metrics.CacheValuesRead.Load(), metrics.Parse.Docs.Load())
	}
}

func TestPlanModRecreatedTableInvalidates(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// Drop and recreate the raw table with different content: the cache
	// must not serve values from the old incarnation.
	if err := f.wh.DropTable("mydb", "t"); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Minute)
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "mall_id", Type: datum.TypeString},
		{Name: "date", Type: datum.TypeString},
		{Name: "sale_logs", Type: datum.TypeString},
	}}
	if err := f.wh.CreateTable("mydb", "t", schema); err != nil {
		t.Fatal(err)
	}
	rows := [][]datum.Datum{{
		datum.Str("0001"), datum.Str("20190101"),
		datum.Str(`{"item_id":1,"item_name":"x","sale_count":1,"turnover":777,"price":1}`),
	}}
	if _, err := f.wh.AppendRows("mydb", "t", rows); err != nil {
		t.Fatal(err)
	}
	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t WHERE date = '20190101'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "777" {
		t.Fatalf("rows = %v (stale cache value?)", rs.Rows)
	}
	if metrics.CacheValuesRead.Load() != 0 {
		t.Error("cache served values for a recreated table")
	}
}
