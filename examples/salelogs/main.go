// Command salelogs reproduces the paper's motivating scenario (Fig 1): a
// mall's daily sale logs stored as JSON, with two recurring analyst queries
// over 3-day sliding windows — one for the top-turnover item and one for
// the top-selling item. The queries overlap on item_id and item_name
// (spatial correlation) and repeat every day (temporal correlation), which
// is exactly the redundancy Maxson's cache removes.
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
	if err := wh.CreateTable("mydb", "T", schema); err != nil {
		log.Fatal(err)
	}

	items := []string{"apple", "watermelon", "banana", "orange", "grape"}
	loadDay := func(day int) {
		var rows [][]maxson.Datum
		for mall := 1; mall <= 3; mall++ {
			for i, item := range items {
				rows = append(rows, []maxson.Datum{
					maxson.Str(fmt.Sprintf("%04d", mall)),
					maxson.Str(fmt.Sprintf("201901%02d", day)),
					maxson.Str(fmt.Sprintf(
						`{"item_id":%d,"item_name":"%s","sale_count":%d,"turnover":%d,"price":%d}`,
						i+1, item, (day+i*3)%20+1, (day*7+i*13)%200+10, i+2)),
				})
			}
		}
		if _, err := wh.AppendRows("mydb", "T", rows); err != nil {
			log.Fatal(err)
		}
	}

	queryWindow := func(day int) (string, string) {
		lo := fmt.Sprintf("201901%02d", day-2)
		hi := fmt.Sprintf("201901%02d", day)
		turnoverQ := fmt.Sprintf(`
			SELECT mall_id,
			       get_json_object(sale_logs, '$.item_id') AS item_id,
			       get_json_object(sale_logs, '$.item_name') AS item_name,
			       get_json_object(sale_logs, '$.turnover') AS turnover
			FROM mydb.T
			WHERE date BETWEEN '%s' AND '%s'
			ORDER BY cast_double(get_json_object(sale_logs, '$.turnover')) DESC
			LIMIT 1`, lo, hi)
		salesQ := fmt.Sprintf(`
			SELECT mall_id,
			       get_json_object(sale_logs, '$.item_id') AS item_id,
			       get_json_object(sale_logs, '$.item_name') AS item_name,
			       get_json_object(sale_logs, '$.sale_count') AS sale_count
			FROM mydb.T
			WHERE date BETWEEN '%s' AND '%s'
			ORDER BY cast_double(get_json_object(sale_logs, '$.sale_count')) DESC
			LIMIT 1`, lo, hi)
		return turnoverQ, salesQ
	}

	// Three seed days of data, then two weeks of daily load + queries.
	for day := 1; day <= 3; day++ {
		loadDay(day)
		sys.AdvanceClock(24 * time.Hour)
	}

	var parsedBefore, parsedAfter int64
	cm := sys.Engine().CostModel()
	var simBefore, simAfter time.Duration
	for day := 4; day <= 17; day++ {
		loadDay(day)
		sys.AdvanceClock(12 * time.Hour) // queries run midday, after the load
		q1, q2 := queryWindow(day)
		for _, sql := range []string{q1, q2} {
			_, m, err := sys.QueryCtx(ctx, sql)
			if err != nil {
				log.Fatal(err)
			}
			if day <= 10 {
				parsedBefore += m.Parse.Docs.Load()
				simBefore += m.SimulatedTime(cm)
			} else {
				parsedAfter += m.Parse.Docs.Load()
				simAfter += m.SimulatedTime(cm)
			}
		}
		sys.AdvanceToMidnight()
		if day == 10 {
			// Enough history: start the nightly prediction + caching cycle.
			report, err := sys.RunMidnightCycleCtx(ctx)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("day %d midnight: predicted %d MPJPs, cached %d paths (%d bytes)\n",
				day, report.CandidateMPJP, report.Selected, sys.CacheBytes())
		} else if day > 10 {
			if _, err := sys.RunMidnightCycleCtx(ctx); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Printf("\ndays 4-10 (no cache):  %5d documents parsed, simulated time %v\n", parsedBefore, simBefore)
	fmt.Printf("days 11-17 (cached):   %5d documents parsed, simulated time %v\n", parsedAfter, simAfter)
	if parsedAfter < parsedBefore {
		fmt.Printf("duplicate parsing eliminated: %.0f%% fewer documents parsed, %.1fx faster\n",
			100*(1-float64(parsedAfter)/float64(parsedBefore)),
			float64(simBefore)/float64(simAfter))
	}
}
