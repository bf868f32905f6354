package baseline

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// saleLogs builds a three-part-file table of JSON sale logs with nested
// objects and an array, so point, nested, wildcard and root paths all have
// something to find.
func saleLogs(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	wh := warehouse.New(dfs.New(), warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 8}))
	wh.CreateDatabase("mydb")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "date", Type: datum.TypeString},
		{Name: "sale_logs", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("mydb", "t", schema); err != nil {
		t.Fatal(err)
	}
	day := 1
	for _, n := range []int{10, 10, 11} {
		var rows [][]datum.Datum
		for i := 0; i < n; i++ {
			log := fmt.Sprintf(
				`{"item_name":"item-%02d","sale_count":%d,"turnover":%d,"nested":{"deep":{"v":%d}},"basket":[{"sku":"a%d"},{"sku":"b%d"}]}`,
				day, day%7+1, day*10, day*100, day, day%3)
			rows = append(rows, []datum.Datum{datum.Str(fmt.Sprintf("201901%02d", day)), datum.Str(log)})
			day++
		}
		if _, err := wh.AppendRows("mydb", "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	return wh
}

// TestBackendsAgree runs the engine's streaming evaluator and the Mison
// baseline against the tree-parse reference (Jackson) on every query shape.
func TestBackendsAgree(t *testing.T) {
	wh := saleLogs(t)
	engine := func(opts ...sqlengine.EngineOption) *sqlengine.Engine {
		return sqlengine.NewEngine(wh, append(opts, sqlengine.WithDefaultDB("mydb"))...)
	}
	reference := engine(sqlengine.WithBackend(JacksonBackend{}))
	others := map[string]*sqlengine.Engine{
		"ondemand": engine(),
		"mison":    engine(sqlengine.WithBackend(MisonBackend{})),
	}
	queries := map[string]string{
		"filter-project-order": `
			SELECT get_json_object(sale_logs, '$.item_name') n,
			       get_json_object(sale_logs, '$.nested.deep.v') v
			FROM mydb.t
			WHERE get_json_object(sale_logs, '$.turnover') > 100
			ORDER BY n`,
		"group-by": `
			SELECT get_json_object(sale_logs, '$.sale_count') sc, COUNT(*) c
			FROM mydb.t GROUP BY get_json_object(sale_logs, '$.sale_count') ORDER BY sc`,
		"wildcard": `
			SELECT get_json_object(sale_logs, '$.basket[*].sku') s,
			       get_json_object(sale_logs, '$.basket[1].sku') b
			FROM mydb.t`,
		"root": `
			SELECT get_json_object(sale_logs, '$') d,
			       get_json_object(sale_logs, '$.nested') n
			FROM mydb.t WHERE date < '20190105'`,
	}
	for name, sql := range queries {
		want, _, err := reference.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: jackson: %v", name, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: reference returned no rows", name)
		}
		for backend, e := range others {
			got, _, err := e.QueryCtx(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, backend, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s: %s differs from jackson:\n%s\nwant:\n%s", name, backend, got, want)
			}
		}
	}
}
