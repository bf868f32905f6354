// Package maxson is the public API of this reproduction of "Maxson: Reduce
// Duplicate Parsing Overhead on Raw Data" (Shi et al., ICDE 2020).
//
// Maxson is a JSONPath-result caching system for SQL-on-JSON analytics.
// Production JSON workloads show strong temporal correlations (recurring
// daily/weekly queries) and spatial correlations (power-law JSONPath
// popularity), so the same JSONPaths are parsed out of the same documents
// over and over. Instead of parsing faster, Maxson parses less: every
// midnight it predicts which JSONPaths will be parsed at least twice the
// next day (MPJPs) with an LSTM+CRF model, ranks them with a scoring
// function under a storage budget, pre-parses their values into columnar
// cache tables, and transparently rewrites query plans so cached paths read
// from the cache instead of re-parsing JSON.
//
// A minimal session:
//
//	sys := maxson.NewSystem(maxson.SystemConfig{DefaultDB: "mydb"})
//	sys.Warehouse().CreateDatabase("mydb")
//	... create tables, load rows ...
//	rs, metrics, err := sys.QueryCtx(ctx, `SELECT get_json_object(logs, '$.turnover') FROM mydb.sales`)
//	sys.AdvanceToMidnight()
//	report, err := sys.RunMidnightCycleCtx(ctx) // predict + score + pre-cache
//	rs, metrics, err = sys.QueryCtx(ctx, ...)   // now served from the cache
//
// Every operation that does work takes a context.Context and has exactly one
// spelling; cancellation and deadlines take effect at batch boundaries.
package maxson

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// Re-exported building blocks, so applications only import this package.
type (
	// System bundles the engine, warehouse, and the Maxson daily cycle.
	System struct {
		m     *core.Maxson
		wh    *warehouse.Warehouse
		e     *sqlengine.Engine
		clock *simtime.Sim
	}

	// SystemConfig configures NewSystem.
	SystemConfig struct {
		// DefaultDB qualifies unqualified table names (default "default").
		DefaultDB string
		// CacheBudgetBytes caps the cache footprint (default 1 GiB).
		CacheBudgetBytes int64
		// Window is the predictor history window in days (default 7, the
		// paper's best-performing setting).
		Window int
		// StartTime seeds the simulated clock (default 2019-01-01 UTC).
		StartTime time.Time
		// RowGroupRows tunes the columnar layout (default 10000).
		RowGroupRows int
		// Logger receives structured midnight-cycle logs; nil discards.
		Logger *slog.Logger
		// FlightQueries sizes the flight recorder's recent-query ring.
		// 0 uses the default capacity (256); negative disables the recorder
		// entirely (the query path then pays one nil test).
		FlightQueries int
		// SlowQueryThreshold marks queries at/above this wall time as slow —
		// they land in the slow-query ring and emit one structured log line.
		// Zero uses the default (500ms).
		SlowQueryThreshold time.Duration
		// ScanShareWindow, when positive, enables the shared-scan scheduler:
		// concurrent queries over the same (table, generation) coalesce into
		// one pass over the union of their paths. It is the most a query waits
		// for company it has reason to expect: a query waits only once two
		// queries of its scan, from two sessions, arrived less than a window
		// apart, and a lone query starts at once. maxson-serve turns this on.
		ScanShareWindow time.Duration
		// ScanShareMaxQueries seals a share group early at this size.
		ScanShareMaxQueries int
	}

	// ResultSet is a query result.
	ResultSet = sqlengine.ResultSet
	// Metrics is per-query work accounting (read/parse/compute phases).
	Metrics = sqlengine.Metrics
	// CycleReport summarizes one midnight caching cycle.
	CycleReport = core.CycleReport
	// CycleStage is one timed stage of the midnight cycle.
	CycleStage = core.CycleStage
	// Datum is a scalar value.
	Datum = datum.Datum
	// Schema describes table columns.
	Schema = orc.Schema
	// Column is one column of a schema.
	Column = orc.Column
)

// Value type constructors and column types, re-exported.
var (
	Int    = datum.Int
	Float  = datum.Float
	Str    = datum.Str
	Bool   = datum.Bool
	NullOf = datum.NullOf
)

// Column types.
const (
	TypeInt64   = datum.TypeInt64
	TypeFloat64 = datum.TypeFloat64
	TypeString  = datum.TypeString
	TypeBool    = datum.TypeBool
)

// NewSystem builds a complete in-memory Maxson deployment: a simulated
// append-only file system, a warehouse, a SQL engine, and the Maxson
// caching pipeline installed as the engine's plan modifier.
func NewSystem(cfg SystemConfig) *System {
	if cfg.DefaultDB == "" {
		cfg.DefaultDB = "default"
	}
	if cfg.CacheBudgetBytes <= 0 {
		cfg.CacheBudgetBytes = 1 << 30
	}
	if cfg.StartTime.IsZero() {
		cfg.StartTime = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	clock := simtime.NewSim(cfg.StartTime)
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: cfg.RowGroupRows}))
	e := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB(cfg.DefaultDB))
	// One registry serves the whole stack so the flight recorder's pre/post
	// snapshots see engine, combiner, and cache series alike.
	reg := obs.NewRegistry()
	var rec *flight.Recorder
	if cfg.FlightQueries >= 0 {
		rec = flight.New(reg, flight.Options{
			Capacity:      cfg.FlightQueries,
			SlowThreshold: cfg.SlowQueryThreshold,
			Log:           cfg.Logger,
		})
	}
	m := core.New(e, core.Config{
		BudgetBytes:         cfg.CacheBudgetBytes,
		Window:              cfg.Window,
		DefaultDB:           cfg.DefaultDB,
		Obs:                 reg,
		Logger:              cfg.Logger,
		Flight:              rec,
		ScanShareWindow:     cfg.ScanShareWindow,
		ScanShareMaxQueries: cfg.ScanShareMaxQueries,
	})
	return &System{m: m, wh: wh, e: e, clock: clock}
}

// Warehouse exposes table management: CreateDatabase, CreateTable,
// AppendRows, and reading APIs.
func (s *System) Warehouse() *warehouse.Warehouse { return s.wh }

// Engine exposes the SQL engine directly (plans, metrics registry).
func (s *System) Engine() *sqlengine.Engine { return s.e }

// Core exposes the full Maxson internals (collector, registry, scorer,
// cacher, planner) for advanced use and experiments.
func (s *System) Core() *core.Maxson { return s.m }

// QueryCtx executes SQL; JSONPath accesses are observed by the collector and,
// after a caching cycle, served from the cache when valid. The context is
// checked between batches, so cancellation takes effect within one batch
// boundary. A cache table failing mid-query is quarantined and the query is
// transparently re-planned against raw data.
func (s *System) QueryCtx(ctx context.Context, sql string) (*ResultSet, *Metrics, error) {
	return s.m.QueryCtx(ctx, sql)
}

// ExplainCtx executes SQL with tracing and returns an EXPLAIN ANALYZE-style
// annotated operator tree (per-operator rows, bytes, parse calls, cache
// reads: counters only) alongside the results. It is QueryCtx with a
// trace: the same collector feed, flight record, cancellation and
// degraded-cache re-plan.
func (s *System) ExplainCtx(ctx context.Context, sql string) (string, *ResultSet, *Metrics, error) {
	return s.m.ExplainCtx(ctx, sql)
}

// Obs returns the system-wide metrics registry: engine totals, Value
// Combiner counters, and cache gauges, exportable via WriteJSON/WriteText.
func (s *System) Obs() *obs.Registry { return s.m.Obs() }

// Flight returns the per-query flight recorder, nil when SystemConfig
// disabled it (FlightQueries < 0).
func (s *System) Flight() *flight.Recorder { return s.m.Flight }

// NewDebugServer builds the live diagnostics server for this system:
// Prometheus /metrics, /metrics.json, /healthz, net/http/pprof, the flight
// recorder's /debug/queries, and /debug/cycle serving the last midnight
// CycleReport (404 before the first cycle). Start it with Serve or Start.
func (s *System) NewDebugServer() *obs.DebugServer {
	ds := obs.NewDebugServer(s.m.Obs())
	ds.Handle("/debug/queries", s.m.Flight.Handler())
	ds.HandleFunc("/debug/cycle", func(w http.ResponseWriter, r *http.Request) {
		rep := s.m.LastCycle()
		if rep == nil {
			http.Error(w, "no cycle has run yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	return ds
}

// RunMidnightCycleCtx trains/refreshes the predictor, predicts tomorrow's
// MPJPs, ranks them with the scoring function, and re-populates the cache
// under the budget. The context is checked between stages and, during
// populate, between files and batches. An interrupted cycle leaves the
// previous cache generation serving.
func (s *System) RunMidnightCycleCtx(ctx context.Context) (*CycleReport, error) {
	return s.m.RunMidnightCycleCtx(ctx)
}

// SaveState persists collector statistics, the cache registry snapshot, and
// trained predictor weights through the warehouse — the drain-time flush a
// long-lived server runs so a restart serves from cache without retraining.
func (s *System) SaveState() error { return s.m.SaveState() }

// LoadState restores state saved by SaveState. Missing state is not an
// error (fresh deployment); a corrupt state file is.
func (s *System) LoadState() error { return s.m.LoadState() }

// AdvanceToMidnight moves the simulated clock to the next midnight (the
// scheduled cycle time).
func (s *System) AdvanceToMidnight() { s.m.AdvanceToMidnight() }

// AdvanceClock moves the simulated clock forward.
func (s *System) AdvanceClock(d time.Duration) { s.clock.Advance(d) }

// Now returns the simulated current time.
func (s *System) Now() time.Time { return s.clock.Now() }

// CacheBytes reports the current valid cache footprint.
func (s *System) CacheBytes() int64 { return s.m.Registry.TotalBytes() }
