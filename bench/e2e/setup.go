package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/sqlengine"
)

// Server configuration: exactly cmd/maxson-serve's flag defaults. The
// benchmark measures the server people run, so nothing here is tuned for it.
const (
	serveWorkers     = 4
	serveQueue       = 0 // 0 = 4x workers
	serveTimeout     = 30 * time.Second
	scanShareWindow  = 2 * time.Millisecond
	defaultBudgetMiB = 64
)

// mixedBudgetBytes is cycle_mixed's cache budget. The scorer charges a path
// its value bytes plus one per row; the six paths of each table come to 22 B
// a row, so the twelve need 451 kB at 10,250 rows a table (day 1) and 616 kB
// at 14,000 (day 16). 180 kB is 40 % of the first and 29 % of the last, so
// the scorer has to choose. A gate fails the run if a cycle ever admits every
// candidate or none.
const mixedBudgetBytes = 180_000

func budgetBytes(w workload, scale int) int64 {
	if w.cycles {
		return mixedBudgetBytes / int64(scale)
	}
	return defaultBudgetMiB << 20
}

var tables = []struct {
	name string
	doc  func([]byte, *rand.Rand, int) []byte
}{
	{"sales", salesNames.doc},
	{"machines", machinesNames.doc},
}

// bed is one seeded system with its server running.
type bed struct {
	sys  *maxson.System
	srv  *serve.Server
	addr string
	// plain executes templates without Maxson over the same warehouse: the
	// golden results every response is compared with.
	plain *sqlengine.Engine

	scale  int        // divides every row count; 1 except in tests
	rng    *rand.Rand // document stream; appends continue it
	nextID int
	day    int

	seedCycles []*maxson.CycleReport
	seedCycleS []float64
	setupS     float64
}

// newBed generates the data, replays the seeded days with a real midnight
// cycle after each from day 2, and starts the server. Its wall time is
// setup_s. scale divides the row counts and the budget (tests run at 1/50).
func newBed(ctx context.Context, w workload, seed int64, scale int) (*bed, error) {
	start := time.Now()
	budget := budgetBytes(w, scale)
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	sys := maxson.NewSystem(maxson.SystemConfig{
		DefaultDB:        "prod",
		CacheBudgetBytes: budget,
		Logger:           logger,
		ScanShareWindow:  scanShareWindow,
	})
	b := &bed{sys: sys, scale: scale, rng: rand.New(rand.NewSource(seed))}
	wh := sys.Warehouse()
	wh.CreateDatabase("prod")
	schema := maxson.Schema{Columns: []maxson.Column{
		{Name: "ds", Type: maxson.TypeString},
		{Name: "payload", Type: maxson.TypeString},
	}}
	for _, t := range []string{"sales", "machines", "tiny"} {
		if err := wh.CreateTable("prod", t, schema); err != nil {
			return nil, fmt.Errorf("create %s: %w", t, err)
		}
	}
	if _, err := wh.AppendRows("prod", "tiny", tableRows(tinyDoc, b.rng, 1, 0, tinyRows)); err != nil {
		return nil, fmt.Errorf("load tiny: %w", err)
	}
	mix := w.seedMix()
	for day := 1; day <= seedDays; day++ {
		if err := b.appendDay(rowsPerDay / scale); err != nil {
			return nil, err
		}
		sys.AdvanceClock(10 * time.Hour)
		for r := 0; r < replaysADay; r++ {
			for _, t := range mix {
				if _, _, err := sys.QueryCtx(ctx, t.SQL); err != nil {
					return nil, fmt.Errorf("seed day %d %s: %w", day, t.Name, err)
				}
			}
		}
		sys.AdvanceToMidnight()
		if day >= 2 {
			cs := time.Now()
			rep, err := sys.RunMidnightCycleCtx(ctx)
			if err != nil {
				return nil, fmt.Errorf("seed cycle day %d: %w", day, err)
			}
			b.seedCycleS = append(b.seedCycleS, time.Since(cs).Seconds())
			b.seedCycles = append(b.seedCycles, rep)
		}
	}
	b.plain = sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("prod"))

	b.srv = serve.New(sys, serve.Config{
		Workers:      serveWorkers,
		QueueDepth:   serveQueue,
		QueryTimeout: serveTimeout,
		Obs:          sys.Obs(),
		Log:          logger,
		Debug:        sys.NewDebugServer(),
	})
	addr, err := b.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	b.addr = addr
	b.setupS = time.Since(start).Seconds()
	return b, nil
}

// appendDay loads one day's rows into both big tables.
func (b *bed) appendDay(rows int) error {
	b.day++
	for _, t := range tables {
		if _, err := b.sys.Warehouse().AppendRows("prod", t.name, tableRows(t.doc, b.rng, b.day, b.nextID, rows)); err != nil {
			return fmt.Errorf("append %s day %d: %w", t.name, b.day, err)
		}
	}
	b.nextID += rows
	return nil
}

// close drains the server and waits for it.
func (b *bed) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return b.srv.Shutdown(ctx)
}

// golden runs one template on the plain engine and renders it the way the
// server renders a result.
func (b *bed) golden(ctx context.Context, t template) (result, error) {
	rs, _, err := b.plain.QueryCtx(ctx, t.SQL)
	if err != nil {
		return result{}, fmt.Errorf("golden %s: %w", t.Name, err)
	}
	g := result{Columns: rs.Columns, Rows: make([][]string, len(rs.Rows))}
	for i, row := range rs.Rows {
		g.Rows[i] = make([]string, len(row))
		for j, d := range row {
			g.Rows[i][j] = d.AsString()
		}
	}
	return g, nil
}

// spaceRatio is the cache's footprint over the stored size of the user
// tables: bytes stored per byte of user data.
func (b *bed) spaceRatio() (float64, error) {
	var raw int64
	for _, t := range []string{"sales", "machines", "tiny"} {
		n, err := b.sys.Warehouse().TotalBytes("prod", t)
		if err != nil {
			return 0, err
		}
		raw += n
	}
	return float64(b.sys.CacheBytes()) / float64(raw), nil
}
