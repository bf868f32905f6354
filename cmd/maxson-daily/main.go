// Command maxson-daily simulates a production deployment over many days:
// data loads every morning, a recurring query mix runs during the day, and
// the Maxson midnight cycle trains, predicts, scores, and re-populates the
// cache each night. It prints a per-day operations report — parse traffic,
// cache hit behaviour, cycle statistics — showing the system converging
// onto the workload.
//
// Usage:
//
//	maxson-daily -days 21 -budget-mb 64
//	maxson-daily -days 21 -debug-addr 127.0.0.1:6060   # live diagnostics
//
// With -debug-addr the run serves the diagnostics server while it works:
// Prometheus /metrics, the flight recorder's /debug/queries, the last cycle
// report on /debug/cycle, /healthz, and net/http/pprof.
//
// Exit codes: 0 success, 1 setup failure (tables/loads), 2 query failure,
// 3 midnight-cycle failure (the partial cycle report is flushed to stderr),
// 4 output failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro"
)

// Exit codes; each failure class gets its own so operators (and CI) can
// tell a broken workload from a broken cycle without parsing stderr.
const (
	exitSetup  = 1
	exitQuery  = 2
	exitCycle  = 3
	exitOutput = 4
)

// codedError carries the process exit code alongside the cause.
type codedError struct {
	code int
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

func fail(code int, err error) error { return &codedError{code: code, err: err} }

func main() {
	days := flag.Int("days", 21, "days to simulate")
	budgetMB := flag.Int64("budget-mb", 64, "cache budget in MiB")
	rowsPerDay := flag.Int("rows", 200, "rows loaded per table per day")
	warmup := flag.Int("warmup", 8, "days before the first midnight cycle")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	verbose := flag.Bool("v", false, "emit structured cycle logs to stderr")
	metrics := flag.Bool("metrics", false, "dump the metrics registry after the run")
	debugAddr := flag.String("debug-addr", "", "serve the diagnostics server (metrics, flight recorder, pprof) on this address")
	linger := flag.Duration("linger", 0, "with -debug-addr: keep the debug server up this long after the run (for scraping)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, *days, *budgetMB, *rowsPerDay, *warmup, *verbose, *metrics, *debugAddr, *linger); err != nil {
		fmt.Fprintln(os.Stderr, "maxson-daily:", err)
		code := exitSetup
		var ce *codedError
		if errors.As(err, &ce) {
			code = ce.code
		}
		os.Exit(code)
	}
}

func run(ctx context.Context, days int, budgetMB int64, rowsPerDay, warmup int, verbose, metrics bool, debugAddr string, linger time.Duration) error {
	var logger *slog.Logger
	if verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	sys := maxson.NewSystem(maxson.SystemConfig{
		DefaultDB:        "prod",
		CacheBudgetBytes: budgetMB << 20,
		Logger:           logger,
	})
	if debugAddr != "" {
		ds := sys.NewDebugServer()
		addr, err := ds.Start(debugAddr)
		if err != nil {
			return fail(exitSetup, fmt.Errorf("debug server: %w", err))
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /debug/queries, /debug/cycle, /debug/pprof)\n", addr)
		defer func() {
			if linger > 0 {
				time.Sleep(linger)
			}
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = ds.Shutdown(sctx)
		}()
	}
	wh := sys.Warehouse()
	wh.CreateDatabase("prod")

	// Two tables: sale logs and machine logs, each with a JSON column.
	for _, table := range []string{"sales", "machines"} {
		schema := maxson.Schema{Columns: []maxson.Column{
			{Name: "ds", Type: maxson.TypeString},
			{Name: "payload", Type: maxson.TypeString},
		}}
		if err := wh.CreateTable("prod", table, schema); err != nil {
			return fail(exitSetup, fmt.Errorf("create table prod.%s: %w", table, err))
		}
	}

	loadDay := func(day int) error {
		for _, table := range []string{"sales", "machines"} {
			var rows [][]maxson.Datum
			for i := 0; i < rowsPerDay; i++ {
				var doc string
				if table == "sales" {
					doc = fmt.Sprintf(
						`{"item_id":%d,"item_name":"item-%03d","turnover":%d,"price":%d,"region":"r%d"}`,
						i, i%50, (day*37+i*11)%5000, i%20+1, i%5)
				} else {
					doc = fmt.Sprintf(
						`{"host":"node-%02d","cpu":%d,"mem":%d,"alerts":%d,"rack":"k%d"}`,
						i%16, (day*7+i)%100, (day*3+i*5)%100, i%7, i%4)
				}
				rows = append(rows, []maxson.Datum{
					maxson.Str(fmt.Sprintf("d%03d", day)),
					maxson.Str(doc),
				})
			}
			if _, err := wh.AppendRows("prod", table, rows); err != nil {
				return fail(exitSetup, fmt.Errorf("load day %d into prod.%s: %w", day, table, err))
			}
		}
		return nil
	}

	// The recurring daily query mix (each runs twice a day — the paper's
	// spatial-correlation pattern).
	queries := []string{
		`SELECT get_json_object(payload, '$.item_name') n,
		        SUM(cast_double(get_json_object(payload, '$.turnover'))) s
		 FROM prod.sales GROUP BY get_json_object(payload, '$.item_name')
		 ORDER BY s DESC LIMIT 5`,
		`SELECT get_json_object(payload, '$.region') r, COUNT(*) c
		 FROM prod.sales GROUP BY get_json_object(payload, '$.region') ORDER BY r`,
		`SELECT get_json_object(payload, '$.host') h,
		        MAX(cast_double(get_json_object(payload, '$.cpu'))) peak
		 FROM prod.machines GROUP BY get_json_object(payload, '$.host')
		 HAVING MAX(cast_double(get_json_object(payload, '$.cpu'))) > 80
		 ORDER BY h`,
		`SELECT COUNT(*) c FROM prod.machines
		 WHERE get_json_object(payload, '$.alerts') > 4`,
	}

	fmt.Println("day | parsed-docs | cache-values | parse-bytes | cycle (MPJPs cached, bytes)")
	fmt.Println("----+-------------+--------------+-------------+----------------------------")
	for day := 1; day <= days; day++ {
		if err := loadDay(day); err != nil {
			return err
		}
		sys.AdvanceClock(10 * time.Hour) // queries run mid-day, after the load

		var parsed, cached, parseBytes int64
		for rep := 0; rep < 2; rep++ {
			for _, sql := range queries {
				_, m, err := sys.QueryCtx(ctx, sql)
				if err != nil {
					return fail(exitQuery, fmt.Errorf("day %d query failed: %w", day, err))
				}
				parsed += m.Parse.Docs.Load()
				cached += m.CacheValuesRead.Load()
				parseBytes += m.Parse.Bytes.Load()
			}
		}

		cycleNote := "-"
		stageNote := ""
		sys.AdvanceToMidnight()
		if day >= warmup {
			report, err := sys.RunMidnightCycleCtx(ctx)
			if err != nil {
				// Flush what the cycle got done before it died — the partial
				// stage timings are the first thing an operator wants.
				if report != nil {
					fmt.Fprintf(os.Stderr, "partial cycle report (day %d): %s\n", day, report.StageSummary())
				}
				return fail(exitCycle, fmt.Errorf("day %d midnight cycle failed: %w", day, err))
			}
			cycleNote = fmt.Sprintf("%d cached, %s", report.Selected, humanBytes(sys.CacheBytes()))
			stageNote = report.StageSummary()
		}
		fmt.Printf("%3d | %11d | %12d | %11d | %s\n", day, parsed, cached, parseBytes, cycleNote)
		if stageNote != "" {
			fmt.Printf("    |             |              |             | stages: %s\n", stageNote)
		}
	}

	fmt.Println()
	printSummary(sys)
	if metrics {
		fmt.Println()
		fmt.Println("metrics registry:")
		if err := sys.Obs().WriteText(os.Stdout); err != nil {
			return fail(exitOutput, fmt.Errorf("write metrics: %w", err))
		}
	}
	return nil
}

func printSummary(sys *maxson.System) {
	entries := sys.Core().Registry.Entries()
	fmt.Printf("final cache: %d entries, %s\n", len(entries), humanBytes(sys.CacheBytes()))
	for _, e := range entries {
		state := "valid"
		if e.Invalid {
			state = "invalid"
		}
		fmt.Printf("  %-60s %8s  %s\n", e.Key.String(), humanBytes(e.Bytes), state)
	}
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
