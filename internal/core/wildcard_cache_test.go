package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// wildFixture builds a warehouse whose JSON column carries arrays, so
// wildcard paths like $.items[*].q have something to iterate.
func wildFixture(t *testing.T) *fixture {
	t.Helper()
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 8}))
	wh.CreateDatabase("mydb")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "mall_id", Type: datum.TypeString},
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
			date := fmt.Sprintf("201901%02d", day)
			log := fmt.Sprintf(
				`{"items":[{"q":%d,"name":"a-%02d"},{"q":%d},{"q":%d}],"turnover":%d}`,
				day, day, day*2, day%5, day*10)
			rows = append(rows, []datum.Datum{datum.Str("0001"), datum.Str(date), datum.Str(log)})
			day++
		}
		if _, err := wh.AppendRows("mydb", "t", rows); err != nil {
			t.Fatal(err)
		}
		clock.Advance(24 * time.Hour)
	}
	engine := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("mydb"), sqlengine.WithParallelism(2))
	return &fixture{clock: clock, wh: wh, engine: engine}
}

// TestWildcardPathCachedByMidnightCycle drives the full loop for a wildcard
// MPJP: daily observed $.items[*].q queries feed the predictor, the scorer
// measures the path (AvgScanBytes: what the streaming pass scans), the cycle
// populates the cache table, and the registry serves the next query without
// parsing a single document — with results identical to a cold engine.
func TestWildcardPathCachedByMidnightCycle(t *testing.T) {
	f := wildFixture(t)
	m := New(f.engine, Config{
		BudgetBytes: 1 << 30,
		Window:      3,
		DefaultDB:   "mydb",
		Model:       NewLSTMCRF(LSTMConfig{Hidden: 8, Epochs: 6, LR: 0.02, Seed: 1, Batch: 8}),
	})
	wildKey := pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.items[*].q"}
	for day := 0; day < 12; day++ {
		for rep := 0; rep < 3; rep++ {
			m.Collector.Observe([]pathkey.Key{
				wildKey,
				{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"},
			}, f.clock.Now().Add(time.Duration(rep)*time.Hour))
		}
		f.clock.Advance(24 * time.Hour)
	}
	m.AdvanceToMidnight()
	report, err := m.RunMidnightCycleCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.CandidateMPJP == 0 || report.Selected == 0 {
		t.Fatalf("cycle predicted nothing: %+v", report)
	}
	entry := m.Registry.Lookup(wildKey)
	if entry == nil {
		t.Fatalf("wildcard path %s not cached by the midnight cycle", wildKey.Path)
	}

	const sql = `SELECT get_json_object(sale_logs, '$.items[*].q') qs FROM mydb.t ORDER BY date`
	rs, metrics, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Parse.Docs.Load() != 0 {
		t.Errorf("cached wildcard path still parses (%d docs)", metrics.Parse.Docs.Load())
	}

	// Results must match a cold engine evaluating the same query raw.
	plain := wildFixture(t)
	rp, _, err := plain.engine.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs.String() != rp.String() {
		t.Errorf("cached wildcard results differ:\n%s\nvs\n%s", rs.String(), rp.String())
	}
	// Spot-check one collapsed value: day 1 → [1,2,1].
	if len(rs.Rows) != 31 {
		t.Fatalf("rows = %d, want 31", len(rs.Rows))
	}
	if got := rs.Rows[0][0].S; got != "[1,2,1]" {
		t.Errorf("row 0 = %q, want %q", got, "[1,2,1]")
	}
}
