// Command xmllogs demonstrates the paper's closing observation that
// Maxson's pre-caching technique applies to other semi-structured formats:
// XML machine logs are converted into canonical JSON at ingest, after which
// the complete pipeline — collection, prediction, scoring, caching, plan
// modification — works unchanged, and the queries address XML structure via
// JSONPaths like $.log.host.@name.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/sxml"
)

func main() {
	ctx := context.Background()
	sys := maxson.NewSystem(maxson.SystemConfig{DefaultDB: "ops"})
	wh := sys.Warehouse()
	wh.CreateDatabase("ops")
	schema := maxson.Schema{Columns: []maxson.Column{
		{Name: "date", Type: maxson.TypeString},
		{Name: "event", Type: maxson.TypeString}, // XML converted to canonical JSON
	}}
	if err := wh.CreateTable("ops", "machine_logs", schema); err != nil {
		log.Fatal(err)
	}

	// Ingest: XML events arrive daily and are converted once at load time.
	levels := []string{"info", "warn", "error"}
	loadDay := func(day int) {
		var rows [][]maxson.Datum
		for i := 0; i < 30; i++ {
			xml := fmt.Sprintf(
				`<log ts="%d"><host name="node-%02d" rack="r%d"/><metric cpu="%d" mem="%d"/><level>%s</level></log>`,
				day*1000+i, i%8, i%4, (day*13+i*7)%100, (day*11+i*3)%100, levels[i%3])
			converted, err := sxml.ConvertString(xml)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, []maxson.Datum{
				maxson.Str(fmt.Sprintf("201902%02d", day)),
				maxson.Str(converted),
			})
		}
		if _, err := wh.AppendRows("ops", "machine_logs", rows); err != nil {
			log.Fatal(err)
		}
	}

	// The recurring query: error counts per host — XML structure addressed
	// through the canonical JSON mapping.
	sql := `SELECT get_json_object(event, '$.log.host.@name') AS host,
	               COUNT(*) AS errors
	        FROM ops.machine_logs
	        WHERE get_json_object(event, '$.log.level') = 'error'
	        GROUP BY get_json_object(event, '$.log.host.@name')
	        ORDER BY host`

	var before, after int64
	for day := 1; day <= 14; day++ {
		loadDay(day)
		sys.AdvanceClock(12 * time.Hour)
		for rep := 0; rep < 3; rep++ {
			_, m, err := sys.QueryCtx(ctx, sql)
			if err != nil {
				log.Fatal(err)
			}
			if day <= 9 {
				before += m.Parse.Docs.Load()
			} else {
				after += m.Parse.Docs.Load()
			}
		}
		sys.AdvanceToMidnight()
		if day >= 9 {
			if _, err := sys.RunMidnightCycleCtx(ctx); err != nil {
				log.Fatal(err)
			}
		}
	}

	rs, m, err := sys.QueryCtx(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("error counts per host (XML logs, cache-served):")
	fmt.Print(rs.String())
	fmt.Printf("\ndocuments parsed for this query: %d\n", m.Parse.Docs.Load())
	fmt.Printf("days 1-9 (no cache):   %d docs parsed across recurring queries\n", before)
	fmt.Printf("days 10-14 (cached):   %d docs parsed\n", after)
}
