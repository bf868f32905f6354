package maxson

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// buildDemo loads a small sale-logs table through the public API.
func buildDemo(t *testing.T) *System {
	t.Helper()
	sys := NewSystem(SystemConfig{DefaultDB: "mydb", RowGroupRows: 16})
	wh := sys.Warehouse()
	wh.CreateDatabase("mydb")
	schema := Schema{Columns: []Column{
		{Name: "mall_id", Type: TypeString},
		{Name: "date", Type: TypeString},
		{Name: "sale_logs", Type: TypeString},
	}}
	if err := wh.CreateTable("mydb", "sales", schema); err != nil {
		t.Fatal(err)
	}
	var rows [][]Datum
	for day := 1; day <= 20; day++ {
		rows = append(rows, []Datum{
			Str("0001"),
			Str(fmt.Sprintf("201901%02d", day)),
			Str(fmt.Sprintf(`{"item_id":%d,"item_name":"item-%02d","turnover":%d}`, day, day, day*10)),
		})
	}
	if _, err := wh.AppendRows("mydb", "sales", rows); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceClock(24 * time.Hour)
	return sys
}

func TestPublicAPIQueryAndCycle(t *testing.T) {
	sys := buildDemo(t)
	sql := `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.sales WHERE date = '20190105'`

	rs, m, err := sys.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "50" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if m.Parse.Docs.Load() == 0 {
		t.Error("uncached query should parse")
	}

	// Feed a few days of recurring history so the predictor has signal.
	for day := 0; day < 10; day++ {
		if day > 0 {
			sys.AdvanceClock(24 * time.Hour)
		}
		for rep := 0; rep < 3; rep++ {
			if _, _, err := sys.QueryCtx(context.Background(), sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys.AdvanceToMidnight()
	report, err := sys.RunMidnightCycleCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Selected == 0 {
		t.Fatalf("cycle cached nothing: %+v", report)
	}
	if sys.CacheBytes() == 0 {
		t.Error("CacheBytes = 0 after cycle")
	}

	_, m2, err := sys.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Parse.Docs.Load() != 0 {
		t.Errorf("cached query still parsed %d docs", m2.Parse.Docs.Load())
	}
}

func TestPublicAPIDefaults(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	if sys.Now().IsZero() {
		t.Error("clock not initialized")
	}
	if sys.Core() == nil || sys.Engine() == nil || sys.Warehouse() == nil {
		t.Error("accessors returned nil")
	}
}
