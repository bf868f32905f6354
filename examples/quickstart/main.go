// Command quickstart is the smallest end-to-end Maxson session: create a
// table of JSON logs, query it (paying the parse cost), run one midnight
// caching cycle, and query again (served from the cache).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	ctx := context.Background()
	sys := maxson.NewSystem(maxson.SystemConfig{DefaultDB: "mydb"})
	wh := sys.Warehouse()
	wh.CreateDatabase("mydb")

	schema := maxson.Schema{Columns: []maxson.Column{
		{Name: "mall_id", Type: maxson.TypeString},
		{Name: "date", Type: maxson.TypeString},
		{Name: "sale_logs", Type: maxson.TypeString},
	}}
	if err := wh.CreateTable("mydb", "sales", schema); err != nil {
		log.Fatal(err)
	}
	var rows [][]maxson.Datum
	for day := 1; day <= 28; day++ {
		rows = append(rows, []maxson.Datum{
			maxson.Str("0001"),
			maxson.Str(fmt.Sprintf("201901%02d", day)),
			maxson.Str(fmt.Sprintf(`{"item_id":%d,"item_name":"item-%02d","sale_count":%d,"turnover":%d}`,
				day, day, day%7+1, day*10)),
		})
	}
	if _, err := wh.AppendRows("mydb", "sales", rows); err != nil {
		log.Fatal(err)
	}
	sys.AdvanceClock(24 * time.Hour) // data loaded "yesterday"

	sql := `SELECT get_json_object(sale_logs, '$.item_name') AS item_name,
	               get_json_object(sale_logs, '$.turnover') AS turnover
	        FROM mydb.sales
	        ORDER BY cast_double(get_json_object(sale_logs, '$.turnover')) DESC
	        LIMIT 3`

	rs, m, err := sys.QueryCtx(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== before caching ===")
	fmt.Print(rs.String())
	fmt.Printf("documents parsed: %d\n\n", m.Parse.Docs.Load())

	// Build up a few days of recurring history, then run the midnight cycle.
	for day := 0; day < 10; day++ {
		if day > 0 {
			sys.AdvanceClock(24 * time.Hour)
		}
		for rep := 0; rep < 3; rep++ {
			if _, _, err := sys.QueryCtx(ctx, sql); err != nil {
				log.Fatal(err)
			}
		}
	}
	sys.AdvanceToMidnight()
	report, err := sys.RunMidnightCycleCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("midnight cycle: %d MPJPs predicted, %d cached (%d bytes)\n\n",
		report.CandidateMPJP, report.Selected, sys.CacheBytes())

	rs, m, err = sys.QueryCtx(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== after caching ===")
	fmt.Print(rs.String())
	fmt.Printf("documents parsed: %d (served from the JSONPath cache)\n", m.Parse.Docs.Load())
}
