// Command maxson-serve runs Maxson as a long-lived concurrent SQL server:
// an HTTP/JSON frontend (POST /v1/query, GET /v1/sessions) over the cached
// query path, with admission control (bounded worker pool + bounded wait
// queue, overflow shed with 429 + Retry-After), per-query deadlines,
// session limits with idle reaping, panic-isolated handlers, online
// cache-maintenance cycles running concurrently with traffic, and graceful
// drain on SIGTERM/SIGINT (stop admitting → /readyz false → drain in-flight
// → flush state via SaveState).
//
// Usage:
//
//	maxson-serve -addr 127.0.0.1:8080
//	maxson-serve -addr :8080 -workers 8 -queue 64 -cycle-every 30s
//	maxson-serve -addr :8080 -debug-addr 127.0.0.1:6060   # separate debug listener
//
// The server seeds an example warehouse (the maxson-daily tables and query
// mix) and runs one warm-up midnight cycle before accepting traffic, so
// /v1/query serves from cache immediately:
//
//	curl -s localhost:8080/v1/query -d '{"sql":"SELECT COUNT(*) c FROM prod.sales"}'
//
// The diagnostics surface (/metrics, /metrics.json, /healthz, /readyz,
// /debug/queries incl. ?state=active, /debug/cycle, /debug/pprof) is
// mounted on the serving listener, and additionally on -debug-addr when
// given.
//
// Exit codes: 0 clean drain, 1 setup failure, 2 drain failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "serving address")
	debugAddr := flag.String("debug-addr", "", "also serve the diagnostics surface on this separate address")
	workers := flag.Int("workers", 4, "worker pool size (max concurrently executing queries)")
	queue := flag.Int("queue", 0, "wait-queue depth (0 = 4x workers); overflow sheds with 429")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-query deadline (queue wait included)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on shutdown")
	sessionIdle := flag.Duration("session-idle", 5*time.Minute, "idle horizon after which a session is reaped")
	cycleEvery := flag.Duration("cycle-every", time.Minute, "online cache-maintenance cycle interval (0 disables)")
	shareWindow := flag.Duration("scan-share-window", 2*time.Millisecond, "shared-scan admission window: the most a query waits for company, and only once two queries of its scan from two sessions arrived less than this apart (0 disables coalescing)")
	budgetMB := flag.Int64("budget-mb", 64, "cache budget in MiB")
	demoDays := flag.Int("demo-days", 10, "example-warehouse days to seed before serving")
	rowsPerDay := flag.Int("rows", 200, "rows loaded per table per seeded day")
	verbose := flag.Bool("v", false, "structured server/cycle logs on stderr")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if err := run(ctx, logger, *addr, *debugAddr, *workers, *queue, *queryTimeout,
		*drainTimeout, *sessionIdle, *cycleEvery, *shareWindow, *budgetMB, *demoDays, *rowsPerDay); err != nil {
		fmt.Fprintln(os.Stderr, "maxson-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, logger *slog.Logger, addr, debugAddr string,
	workers, queue int, queryTimeout, drainTimeout, sessionIdle, cycleEvery, shareWindow time.Duration,
	budgetMB int64, demoDays, rowsPerDay int) error {
	sys := maxson.NewSystem(maxson.SystemConfig{
		DefaultDB:        "prod",
		CacheBudgetBytes: budgetMB << 20,
		Logger:           logger,
		ScanShareWindow:  shareWindow,
	})
	if err := seedDemoWarehouse(ctx, sys, demoDays, rowsPerDay); err != nil {
		return fmt.Errorf("seed example warehouse: %w", err)
	}

	ds := sys.NewDebugServer()
	srv := serve.New(sys, serve.Config{
		Workers:      workers,
		QueueDepth:   queue,
		QueryTimeout: queryTimeout,
		DrainTimeout: drainTimeout,
		SessionIdle:  sessionIdle,
		CycleEvery:   cycleEvery,
		Cycle: func(ctx context.Context) error {
			// The example warehouse runs on a simulated clock: hop to the
			// next midnight, then run the cycle concurrently with traffic —
			// build-then-swap keeps the previous generation serving.
			sys.AdvanceToMidnight()
			_, err := sys.RunMidnightCycleCtx(ctx)
			return err
		},
		OnDrain: sys.SaveState,
		Obs:     sys.Obs(),
		Log:     logger,
		Debug:   ds,
	})

	if debugAddr != "" {
		dbgBound, err := ds.Start(debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "debug listener on http://%s\n", dbgBound)
		defer func() {
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			defer cancel()
			_ = ds.Shutdown(sctx)
		}()
	}

	fmt.Fprintf(os.Stderr, "maxson-serve on http://%s (%s)\n", addr, srv.Config())
	if err := srv.Serve(ctx, addr); err != nil {
		fmt.Fprintln(os.Stderr, "maxson-serve: drain:", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "maxson-serve: clean drain")
	return nil
}

// demoQueries is the recurring mix (the maxson-daily workload): it feeds
// the collector during seeding so the warm-up cycle has MPJPs to cache.
var demoQueries = []string{
	`SELECT get_json_object(payload, '$.item_name') n,
	        SUM(cast_double(get_json_object(payload, '$.turnover'))) s
	 FROM prod.sales GROUP BY get_json_object(payload, '$.item_name')
	 ORDER BY s DESC LIMIT 5`,
	`SELECT get_json_object(payload, '$.region') r, COUNT(*) c
	 FROM prod.sales GROUP BY get_json_object(payload, '$.region') ORDER BY r`,
	`SELECT get_json_object(payload, '$.host') h,
	        MAX(cast_double(get_json_object(payload, '$.cpu'))) peak
	 FROM prod.machines GROUP BY get_json_object(payload, '$.host')
	 ORDER BY h`,
	`SELECT COUNT(*) c FROM prod.machines
	 WHERE get_json_object(payload, '$.alerts') > 4`,
}

// seedDemoWarehouse loads the example tables for demoDays days, replays the
// recurring query mix so the collector sees the workload, and runs one
// warm-up midnight cycle so the server answers from cache immediately.
func seedDemoWarehouse(ctx context.Context, sys *maxson.System, demoDays, rowsPerDay int) error {
	wh := sys.Warehouse()
	wh.CreateDatabase("prod")
	for _, table := range []string{"sales", "machines"} {
		schema := maxson.Schema{Columns: []maxson.Column{
			{Name: "ds", Type: maxson.TypeString},
			{Name: "payload", Type: maxson.TypeString},
		}}
		if err := wh.CreateTable("prod", table, schema); err != nil {
			return err
		}
	}
	for day := 1; day <= demoDays; day++ {
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
				return err
			}
		}
		sys.AdvanceClock(10 * time.Hour)
		for _, sql := range demoQueries {
			if _, _, err := sys.QueryCtx(ctx, sql); err != nil {
				return fmt.Errorf("seed day %d: %w", day, err)
			}
		}
		sys.AdvanceToMidnight()
	}
	report, err := sys.RunMidnightCycleCtx(ctx)
	if err != nil {
		return fmt.Errorf("warm-up cycle: %w", err)
	}
	fmt.Fprintf(os.Stderr, "warm-up cycle: %d MPJPs cached (%s)\n",
		report.Selected, report.StageSummary())
	return nil
}
