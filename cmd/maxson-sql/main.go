// Command maxson-sql runs SQL against a demo warehouse (the paper's Fig 1
// sale-logs table), with or without Maxson's JSONPath cache, and prints the
// result plus the read/parse/compute accounting so the caching effect is
// visible per query.
//
// Usage:
//
//	maxson-sql "SELECT get_json_object(sale_logs, '$.turnover') FROM mydb.T LIMIT 3"
//	maxson-sql -maxson "SELECT ..."   # pre-caches all JSONPaths first
//	maxson-sql -plan "SELECT ..."     # print the physical plan only
//	maxson-sql -explain "SELECT ..."  # EXPLAIN ANALYZE: annotated operator tree
//	maxson-sql -trace-out q.json "SELECT ..."  # Chrome trace-event timeline
//	maxson-sql -debug-addr :6060 "SELECT ..."  # live /metrics, /debug/queries, pprof
//
// -trace-out writes the query's span tree in Chrome trace-event format;
// load the file at chrome://tracing or https://ui.perfetto.dev to see the
// plan/scan/split timeline.
//
// With -explain -maxson the query is replayed as a recurring daily workload,
// a real midnight cycle runs (train, predict, score, populate), and the
// annotated tree prints before and after — the cached run shows combined
// scans and cache reads where the first showed raw parsing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pathkey"
)

func main() {
	useMaxson := flag.Bool("maxson", false, "pre-cache the demo table's JSONPaths before running")
	planOnly := flag.Bool("plan", false, "print the physical plan instead of executing")
	explain := flag.Bool("explain", false, "print an EXPLAIN ANALYZE annotated operator tree")
	replayDaysFlag := flag.Int("replay-days", 15, "with -explain -maxson: days of recurring history to replay before the cycle")
	days := flag.Int("days", 31, "days of demo data to load")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for queries and cycles (0 = none)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the query to this file")
	debugAddr := flag.String("debug-addr", "", "serve the diagnostics server (metrics, flight recorder, pprof) on this address")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: maxson-sql [-maxson] [-plan] [-explain] \"SELECT ...\"")
	}
	sql := flag.Arg(0)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sys := maxson.NewSystem(maxson.SystemConfig{DefaultDB: "mydb"})
	if *debugAddr != "" {
		ds := sys.NewDebugServer()
		addr, err := ds.Start(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- debug server on http://%s (/metrics, /debug/queries, /debug/pprof)\n", addr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = ds.Shutdown(sctx)
		}()
	}
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
	for day := 1; day <= *days; day++ {
		var rows [][]maxson.Datum
		for i, item := range items {
			rows = append(rows, []maxson.Datum{
				maxson.Str("0001"),
				maxson.Str(fmt.Sprintf("201901%02d", day)),
				maxson.Str(fmt.Sprintf(
					`{"item_id":%d,"item_name":"%s","sale_count":%d,"turnover":%d,"price":%d}`,
					i+1, item, (day+i)%15+1, (day*3+i*17)%150+10, i+2)),
			})
		}
		if _, err := wh.AppendRows("mydb", "T", rows); err != nil {
			log.Fatal(err)
		}
	}
	sys.AdvanceClock(24 * time.Hour)

	if *explain {
		out, _, met, err := sys.ExplainCtx(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		if !*useMaxson {
			fmt.Print(out)
			exportTrace(*traceOut, met)
			return
		}
		fmt.Println("-- before midnight cycle")
		fmt.Print(out)

		// Replay the query as a recurring daily workload so the collector
		// accumulates history, then run the real pipeline: train the
		// predictor, predict MPJPs, score them, populate the cache.
		for day := 0; day < *replayDaysFlag; day++ {
			sys.AdvanceClock(10 * time.Hour) // queries run mid-day
			for rep := 0; rep < 2; rep++ {
				if _, _, err := sys.QueryCtx(ctx, sql); err != nil {
					log.Fatal(err)
				}
			}
			sys.AdvanceToMidnight()
		}
		report, err := sys.RunMidnightCycleCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n-- midnight cycle: %d candidates, %d cached (%s); stages: %s\n",
			report.CandidateMPJP, report.Cache.PathsCached,
			humanBytes(sys.CacheBytes()), report.StageSummary())

		after, _, met, err := sys.ExplainCtx(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\n-- after midnight cycle")
		fmt.Print(after)
		exportTrace(*traceOut, met)
		return
	}

	if *useMaxson {
		var profiles []*core.PathProfile
		for _, p := range []string{"$.item_id", "$.item_name", "$.sale_count", "$.turnover", "$.price"} {
			profiles = append(profiles, &core.PathProfile{
				Key:             pathkey.Key{DB: "mydb", Table: "T", Column: "sale_logs", Path: p},
				TotalValueBytes: 1,
			})
		}
		if _, err := sys.Core().CacheSelected(ctx, profiles); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- maxson: %d JSONPaths pre-cached (%d bytes)\n\n", len(profiles), sys.CacheBytes())
	}

	if *planOnly {
		plan, _, err := sys.Engine().PlanOnly(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(plan.String())
		return
	}

	rs, m, err := sys.QueryCtx(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rs.String())
	fmt.Printf("\n-- %d rows; %s\n", len(rs.Rows), m)
	fmt.Printf("-- simulated: %s\n", m.Breakdown(sys.Engine().CostModel()))
	if n := m.CacheValuesRead.Load(); n > 0 {
		fmt.Printf("-- served %d values from the JSONPath cache\n", n)
	}
	if *traceOut != "" {
		// The plain query path runs untraced; replay once with tracing on so
		// the exported timeline covers a real execution of the same plan.
		_, _, tm, err := sys.ExplainCtx(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		exportTrace(*traceOut, tm)
	}
}

// exportTrace writes a traced query's span tree as a Chrome trace-event
// JSON file, loadable at chrome://tracing or ui.perfetto.dev. No-op when no
// path was requested; fatal when the query carried no trace.
func exportTrace(path string, m *maxson.Metrics) {
	if path == "" {
		return
	}
	if m == nil || m.Trace == nil {
		log.Fatal("trace-out: query was not traced (no span tree recorded)")
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteTraceEvents(f, m.Trace); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", path)
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
