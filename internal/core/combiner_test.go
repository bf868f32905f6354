package core

import (
	"context"
	"testing"

	"repro/internal/datum"
	"repro/internal/sqlengine"
)

func TestCombinerCacheOnlyReading(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// Query references only the cached path: the paper's cache-only reading
	// mode (no PrimaryReader at all).
	rs, metrics, err := m.QueryCtx(context.Background(), `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 31 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if metrics.Parse.Docs.Load() != 0 || metrics.CacheValuesRead.Load() != 31 {
		t.Errorf("parse=%d cache=%d", metrics.Parse.Docs.Load(), metrics.CacheValuesRead.Load())
	}
}

func TestCombinerEmptyPopulation(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	// Populating with nothing must be a no-op that leaves queries working.
	if _, err := m.CacheSelected(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	rs, _, err := m.QueryCtx(context.Background(), `SELECT COUNT(*) c FROM mydb.t`)
	if err != nil || rs.Rows[0][0].I != 31 {
		t.Fatalf("rows=%v err=%v", rs.Rows, err)
	}
}

func TestCombinerNullJSONDocuments(t *testing.T) {
	f := newFixture(t)
	// Add a file with NULL JSON documents, then cache.
	rows := [][]datum.Datum{
		{datum.Str("0001"), datum.Str("20190299"), datum.NullOf(datum.TypeString)},
	}
	if _, err := f.wh.AppendRows("mydb", "t", rows); err != nil {
		t.Fatal(err)
	}
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	rs, _, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t
		WHERE date = '20190299'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || !rs.Rows[0][0].Null {
		t.Fatalf("NULL document row = %v", rs.Rows)
	}
}

func TestCombinerMalformedJSONDocuments(t *testing.T) {
	f := newFixture(t)
	rows := [][]datum.Datum{
		{datum.Str("0001"), datum.Str("20190298"), datum.Str("this is not json {")},
	}
	if _, err := f.wh.AppendRows("mydb", "t", rows); err != nil {
		t.Fatal(err)
	}
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// Cached (the bad doc caches as NULL) and plain engines must agree.
	rs, _, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t
		WHERE date = '20190298'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || !rs.Rows[0][0].Null {
		t.Fatalf("malformed document row = %v", rs.Rows)
	}
}

func TestCombinerManyAppendsManyFallbackSplits(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.item_id")
	// Several daily appends after caching, every other one with its ingest
	// faulted: each of those new splits must fall back, between splits the
	// ingests cached.
	for d := 0; d < 4; d++ {
		rows := [][]datum.Datum{{
			datum.Str("0001"),
			datum.Str("2019030" + string(rune('1'+d))),
			datum.Str(`{"item_id":500,"item_name":"x","sale_count":1,"turnover":1,"price":1}`),
		}}
		if d%2 == 0 {
			appendUncovered(t, f.wh, "mydb", "t", rows)
		} else if _, err := f.wh.AppendRows("mydb", "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT COUNT(*) c FROM mydb.t WHERE get_json_object(sale_logs, '$.item_id') = 500`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].I != 4 {
		t.Fatalf("count = %v", rs.Rows[0][0])
	}
	// Pushdown skips every row group of the populated splits.
	if docs, values := metrics.Parse.Docs.Load(), metrics.CacheValuesRead.Load(); docs != 2 || values != 2 {
		t.Errorf("parsed %d docs and read %d cache values, want the 2 fallback splits' docs and the 2 ingested splits' values", docs, values)
	}
}

func TestWildcardPathThroughCache(t *testing.T) {
	f := newFixture(t)
	// Add array payloads, cache a wildcard path, verify round trip.
	rows := [][]datum.Datum{
		{datum.Str("0002"), datum.Str("20190297"), datum.Str(`{"tags":[{"v":1},{"v":2}]}`)},
		{datum.Str("0002"), datum.Str("20190296"), datum.Str(`{"tags":[{"v":9}]}`)},
	}
	if _, err := f.wh.AppendRows("mydb", "t", rows); err != nil {
		t.Fatal(err)
	}
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.tags[*].v")
	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.tags[*].v') v FROM mydb.t
		WHERE mall_id = '0002' ORDER BY date`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "9" || rs.Rows[1][0].S != "[1,2]" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if metrics.Parse.Docs.Load() != 0 {
		t.Errorf("wildcard path should serve from cache, parsed %d", metrics.Parse.Docs.Load())
	}
}

func TestFactorySchemaAccessor(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	plan, _, err := f.engine.PlanOnly(`SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	factory, ok := plan.Scan.Factory.(*CombinedScanFactory)
	if !ok {
		t.Fatal("scan factory not combined")
	}
	schema, err := factory.Schema()
	if err != nil || len(schema.Cols) == 0 {
		t.Errorf("Schema = %+v err=%v", schema, err)
	}
	n, err := factory.NumSplits()
	if err != nil || n != 3 {
		t.Errorf("NumSplits = %d err=%v", n, err)
	}
	if _, err := factory.Open(99, &sqlengine.Metrics{}, nil); err == nil {
		t.Error("out-of-range split should error")
	}
}
