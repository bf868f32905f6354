package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/pathkey"
	"repro/internal/scanshare"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// Maxson wires the full system: a collector observing queries, a predictor
// choosing tomorrow's MPJPs, the scoring function ranking them under the
// cache budget, the cacher populating cache tables at midnight, and the
// plan modifier serving queries from the cache (paper Fig 5).
type Maxson struct {
	Engine    *sqlengine.Engine
	Collector *Collector
	Registry  *Registry
	Cacher    *Cacher
	Planner   *Planner
	Scorer    *Scorer

	// BudgetBytes is the cache storage constraint.
	BudgetBytes int64
	// Window is the predictor's history window in days (1 week maximizes
	// F1 per Table IV).
	Window int
	// Model is the MPJP predictor; defaults to LSTM+CRF.
	Model Predictor
	// UseRandomSelection switches to the Fig 11 random-caching baseline.
	UseRandomSelection bool
	// RandomSeed seeds the random-selection baseline.
	RandomSeed int64
	// ModelTrained tracks whether Model has been fitted.
	ModelTrained bool
	// Log receives structured cycle logging. Defaults to a discard handler;
	// install any slog.Handler (cmd/maxson-daily wires a text handler).
	Log *slog.Logger
	// StageTimeout bounds each midnight-cycle stage; zero means no limit.
	// A stage that overruns is cancelled at the next batch boundary and the
	// cycle aborts with the previous cache generation still serving.
	StageTimeout time.Duration
	// Flight is the per-query flight recorder; nil disables recording (the
	// query path then pays a single nil test).
	Flight *flight.Recorder

	wh              *warehouse.Warehouse
	defaultDB       string
	obs             *obs.Registry
	fallbackQueries *obs.Counter
	lastCycle       atomic.Pointer[CycleReport]
	// stateMu serialises SaveState and LoadState: SaveStats replaces the
	// statistics table by drop + create + append, so a concurrent LoadStats
	// would find no table or no part file, and a load must restore the
	// registry, generation and weights of one save, not a mix of two.
	stateMu sync.Mutex
}

// Config bundles Maxson construction options.
type Config struct {
	BudgetBytes int64
	Window      int
	Model       Predictor
	DefaultDB   string
	// Obs is the metrics registry shared with the engine. When nil, the
	// engine's registry is adopted, or a fresh one is created so cache
	// gauges always have a home.
	Obs *obs.Registry
	// Logger receives structured cycle logs (nil = discard).
	Logger *slog.Logger
	// Flight, when non-nil, records every query through QueryCtx into a
	// bounded in-memory ring for the diagnostics server.
	Flight *flight.Recorder
	// ScanShareWindow, when positive, enables the shared-scan scheduler
	// with this admission window: concurrent queries over the same (table,
	// generation) coalesce into one pass. It is the most a query waits for
	// company it has reason to expect (scanshare.Options.Window); a query
	// whose scan is not contended starts at once. Zero disables sharing.
	ScanShareWindow time.Duration
	// ScanShareMaxQueries seals a share group early at this size
	// (default scanshare.DefaultMaxQueries).
	ScanShareMaxQueries int
}

// New assembles a Maxson instance on top of an engine. The plan modifier is
// installed immediately; it is inert until the first caching cycle
// populates the registry.
func New(e *sqlengine.Engine, cfg Config) *Maxson {
	wh := e.Warehouse()
	registry := NewRegistry()

	// One registry serves the whole stack: prefer the caller's, fall back to
	// the engine's, create one otherwise. The engine adopts it if it has
	// none, so engine totals and cache gauges land in the same snapshot.
	reg := cfg.Obs
	if reg == nil {
		reg = e.ObsRegistry()
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if e.ObsRegistry() == nil {
		e.SetObsRegistry(reg)
	}

	m := &Maxson{
		Engine:      e,
		Collector:   NewCollector(),
		Registry:    registry,
		Cacher:      NewCacher(wh, registry),
		Planner:     NewPlanner(wh, registry, reg),
		Scorer:      NewScorer(wh),
		BudgetBytes: cfg.BudgetBytes,
		Window:      cfg.Window,
		Model:       cfg.Model,
		wh:          wh,
		defaultDB:   cfg.DefaultDB,
		obs:         reg,
	}
	if m.Window <= 0 {
		m.Window = 7
	}
	if m.Model == nil {
		m.Model = NewLSTMCRF(DefaultLSTMConfig())
	}
	if m.defaultDB == "" {
		m.defaultDB = "default"
	}
	m.Log = cfg.Logger
	if m.Log == nil {
		m.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m.Cacher.Log = m.Log
	m.Flight = cfg.Flight

	m.Cacher.SetObs(m.obs)
	m.registerGauges()

	m.Planner.Install(e)

	// Shared-scan scheduler: batches concurrent queries per (table,
	// generation) into one pass. Keyed by the cacher's generation so scans
	// straddling a midnight swap never share, and a quarantine-triggered
	// re-plan (new raw scan, same generation) can re-coalesce with its
	// siblings' retries.
	if cfg.ScanShareWindow > 0 {
		e.SetScanShare(scanshare.New(scanshare.Options{
			Window:     cfg.ScanShareWindow,
			MaxQueries: cfg.ScanShareMaxQueries,
			Obs:        m.obs,
			Generation: func(db, table string) int64 {
				return int64(m.Cacher.Generation())
			},
		}))
	}
	return m
}

// Obs returns the metrics registry serving this instance.
func (m *Maxson) Obs() *obs.Registry { return m.obs }

// registerGauges exposes the cache registry's live state: entry count,
// cached bytes against the budget, generation number, and tables awaiting
// deferred deletion. GaugeFuncs are read at snapshot time, so exports always
// reflect the current cycle.
func (m *Maxson) registerGauges() {
	m.obs.GaugeFunc("cache_registry_path_count", func() int64 {
		return int64(m.Registry.Len())
	})
	m.obs.GaugeFunc("cache_registry_bytes", func() int64 {
		return m.Registry.TotalBytes()
	})
	m.obs.GaugeFunc("cache_budget_bytes", func() int64 {
		return m.BudgetBytes
	})
	m.obs.GaugeFunc("cache_generation_count", func() int64 {
		return int64(m.Cacher.Generation())
	})
	m.obs.GaugeFunc("cache_pending_drop_table_count", func() int64 {
		return int64(m.Cacher.PendingDrops())
	})
	m.obs.GaugeFunc("cache_quarantined_table_count", func() int64 {
		return int64(m.Registry.QuarantineCount())
	})
	m.fallbackQueries = m.obs.Counter("cache_fallback_queries_total")
}

// degradedRetries bounds how many times a query is re-planned after a cache
// table degrades mid-scan. Each degradation quarantines the table, so the
// re-plan routes around it; one retry per distinct bad table suffices and
// the bound keeps a pathological registry from looping.
const degradedRetries = 2

// QueryCtx executes SQL through the engine while feeding the collector — the
// live path a production deployment runs. The context is checked between
// batches, so a cancelled query returns context.Canceled within one batch
// boundary. When a cache table fails mid-scan (ErrCacheDegraded) the table
// is already quarantined, so the query is re-planned — transparently falling
// back to raw parsing — rather than surfacing the cache's failure.
func (m *Maxson) QueryCtx(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error) {
	_, rs, met, err := m.run(ctx, sql, false)
	return rs, met, err
}

// ExplainCtx is QueryCtx with tracing: it also returns the EXPLAIN ANALYZE
// rendering of the plan that produced the results. After a midnight cycle the
// same query shows combined scans, cache value reads and pushdown skips where
// the uncached run showed raw parsing.
func (m *Maxson) ExplainCtx(ctx context.Context, sql string) (string, *sqlengine.ResultSet, *sqlengine.Metrics, error) {
	return m.run(ctx, sql, true)
}

// run is the one door a query goes through: parse, feed the collector, open
// a flight record, then plan and execute, re-planning when a cache table
// degrades. explain only selects the traced engine entry and its rendering.
func (m *Maxson) run(ctx context.Context, sql string, explain bool) (string, *sqlengine.ResultSet, *sqlengine.Metrics, error) {
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		return "", nil, nil, err
	}
	// Open a flight record before planning so the engine can tag scan-layer
	// metrics with the query ID it finds in the context.
	aq := m.Flight.Begin(sql)
	if aq != nil {
		ctx = flight.NewContext(ctx, aq)
	}
	// Observe once: retries re-run the same query, not new workload signal.
	m.Collector.ObserveStmt(stmt, m.defaultDB, m.wh.Clock().Now())
	for attempt := 0; ; attempt++ {
		var (
			text string
			rs   *sqlengine.ResultSet
			met  *sqlengine.Metrics
		)
		if explain {
			text, rs, met, err = m.Engine.ExplainAnalyzeStmtCtx(ctx, stmt)
		} else {
			rs, met, err = m.Engine.QueryStmtCtx(ctx, stmt)
		}
		if err == nil || !errors.Is(err, ErrCacheDegraded) || attempt >= degradedRetries {
			m.finishFlight(aq, rs, met, err)
			return text, rs, met, err
		}
		m.fallbackQueries.Inc()
		aq.AddRetry()
		m.Log.Warn("cache degraded, re-planning on raw data", "attempt", attempt+1, "err", err)
		// The plan modifier rewrote stmt in place against the now-quarantined
		// cache table; re-parse for a clean statement to plan afresh.
		stmt, err = sqlengine.Parse(sql)
		if err != nil {
			m.finishFlight(aq, nil, nil, err)
			return "", nil, nil, err
		}
	}
}

// finishFlight closes a query's flight record, translating the engine's
// Metrics into the recorder's totals, stages (the measured plan and execute
// walls) and plan mode. A query that survived only via cache-degradation
// retries reports "quarantined"; a query that died before producing metrics
// reports "error".
func (m *Maxson) finishFlight(aq *flight.Active, rs *sqlengine.ResultSet, met *sqlengine.Metrics, qerr error) {
	if aq == nil {
		return
	}
	mode := "error"
	var t flight.Totals
	if met != nil {
		pc := met.Parse.Snapshot()
		t = flight.Totals{
			BytesRead:         met.BytesRead.Load(),
			ParseDocs:         pc.Docs,
			ParseBytes:        pc.Bytes,
			ParseBytesSkipped: pc.Skipped,
			RowsScanned:       met.RowsScanned.Load(),
			Batches:           met.Batches.Load(),
			CacheValues:       met.CacheValuesRead.Load(),
			CacheMisses:       met.CacheMisses.Load(),
		}
		if rs != nil {
			t.RowsOut = int64(len(rs.Rows))
		}
		mode = met.PlanModeString()
		if aq.Retries() > 0 {
			mode = "quarantined"
		}
		aq.AddStage("plan", met.PlanWall)
		aq.AddStage("execute", met.WallTime)
	}
	aq.SetMode(mode)
	aq.Finish(t, qerr)
}

// CycleStageNames lists the midnight cycle's stages in execution order.
// Deferred deletion of the previous generation's cache tables runs FIRST —
// by then no in-flight query can still reference them (paper §IV-C: "invalid
// cache tables would be deleted when we perform caching operations next
// time").
var CycleStageNames = []string{"retire", "collect", "predict", "score", "populate"}

// CycleStage times one stage of the midnight cycle. Items is the stage's
// work unit: tables dropped (retire), distinct paths observed (collect),
// MPJPs predicted (predict), candidates profiled (score), paths cached
// (populate).
type CycleStage struct {
	Name  string
	Items int
	Wall  time.Duration
}

// CycleReport summarizes one midnight cycle.
type CycleReport struct {
	At            time.Time
	CandidateMPJP int
	Selected      int
	Cache         CacheStats
	TrainSamples  int
	// Stages always holds all five stages in CycleStageNames order; stages
	// an early exit skipped report zero items and zero duration.
	Stages []CycleStage
}

// StageSummary renders the per-stage timings as one line, e.g.
// "retire 12µs (1), collect 40µs (9), …".
func (r *CycleReport) StageSummary() string {
	parts := make([]string, 0, len(r.Stages))
	for _, s := range r.Stages {
		parts = append(parts, fmt.Sprintf("%s %v (%d)", s.Name, s.Wall.Round(time.Microsecond), s.Items))
	}
	return strings.Join(parts, ", ")
}

// LastCycle returns the most recent midnight-cycle report, nil before the
// first cycle runs. The diagnostics server's /debug/cycle endpoint serves it.
func (m *Maxson) LastCycle() *CycleReport { return m.lastCycle.Load() }

// RunMidnightCycleCtx executes the daily pipeline as of the clock's current
// time: train/refresh the predictor on collected statistics, predict
// tomorrow's MPJPs, score and rank them, and build the next cache generation
// under the budget. The paper schedules this at midnight when the cluster is
// under-utilized. The context (and StageTimeout, per stage) is re-checked
// between stages and, inside populate, between files and batches. A cycle
// that dies at any point leaves the previous cache generation serving: the
// new generation's tables are only registered by an atomic swap after every
// table succeeds, and the next cycle or LoadState cleans up any partial
// tables.
func (m *Maxson) RunMidnightCycleCtx(ctx context.Context) (*CycleReport, error) {
	now := m.wh.Clock().Now()
	report := &CycleReport{At: now}
	// Publish the report on every exit path — aborted cycles are exactly the
	// ones an operator wants to inspect on /debug/cycle.
	defer m.lastCycle.Store(report)
	stageStart := time.Now()
	stage := func(name string, items int, more ...any) {
		wall := time.Since(stageStart)
		report.Stages = append(report.Stages, CycleStage{Name: name, Items: items, Wall: wall})
		m.Log.Info("cycle stage", append([]any{"stage", name, "items", items, "wall", wall}, more...)...)
		stageStart = time.Now()
	}
	// stageCtx derives a per-stage deadline when StageTimeout is set. The
	// cancel func must run even on early return, hence the collector.
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	stageCtx := func() context.Context {
		if m.StageTimeout <= 0 {
			return ctx
		}
		sc, cancel := context.WithTimeout(ctx, m.StageTimeout)
		cancels = append(cancels, cancel)
		return sc
	}
	// checkpoint aborts between stages once the cycle's context is done.
	checkpoint := func(at string) error {
		if err := ctx.Err(); err != nil {
			m.Log.Warn("midnight cycle cancelled", "before", at, "err", err)
			return fmt.Errorf("core: midnight cycle cancelled before %s: %w", at, err)
		}
		return nil
	}
	// finish zero-fills stages an early exit skipped (reports always carry
	// all five) and emits the cycle summary log.
	finish := func() {
		for len(report.Stages) < len(CycleStageNames) {
			report.Stages = append(report.Stages, CycleStage{Name: CycleStageNames[len(report.Stages)]})
		}
		m.Log.Info("midnight cycle done", "at", now,
			"candidates", report.CandidateMPJP, "selected", report.Selected,
			"paths_cached", report.Cache.PathsCached,
			"cache_bytes", report.Cache.BytesWritten+report.Cache.BytesCarried,
			"dropped", report.Cache.Dropped)
	}

	if err := checkpoint("retire"); err != nil {
		return report, err
	}

	// Stage 1: delete the cache tables the PREVIOUS cycle retired (deferred
	// deletion — in-flight queries of that era have long drained).
	dropped := m.Cacher.DropRetired()
	stage("retire", dropped)
	defer func() { report.Cache.Dropped += dropped }()

	if err := checkpoint("collect"); err != nil {
		return report, err
	}

	// Stage 2: collect the history window — the Window days ending yesterday
	// (queries never touch same-day data, §II-D).
	histStart := now.AddDate(0, 0, -m.Window-1)
	counts := m.Collector.CountsFor(histStart, m.Window+1)
	keys := sortedCountKeys(counts)
	stage("collect", len(keys))
	if len(keys) == 0 {
		finish()
		return report, nil
	}

	if err := checkpoint("predict"); err != nil {
		return report, err
	}

	// Stage 3: train once on all windows available in history, then predict
	// with a sample per path whose window ends on the most recent full day.
	if !m.ModelTrained {
		trainStart := now.AddDate(0, 0, -4*m.Window)
		trainCounts := m.Collector.CountsFor(trainStart, 4*m.Window)
		trainKeys := sortedCountKeys(trainCounts)
		samples := BuildSamples(trainCounts, trainKeys, m.Window, m.Window, 4*m.Window, epochDay(trainStart))
		if len(samples) > 0 {
			m.Model.Train(samples)
			m.ModelTrained = true
			report.TrainSamples = len(samples)
		}
	}

	// Predict MPJPs for tomorrow.
	predictSamples := BuildSamples(counts, keys, m.Window, m.Window, m.Window+1, epochDay(histStart))
	mpjpSet := make(map[pathkey.Key]bool)
	var candidates []pathkey.Key
	for _, s := range predictSamples {
		if m.ModelTrained && m.Model.Predict(s) == 1 {
			mpjpSet[s.Key] = true
			candidates = append(candidates, s.Key)
		}
	}
	report.CandidateMPJP = len(candidates)
	stage("predict", len(candidates))
	if len(candidates) == 0 {
		// Nothing predicted: swap in an empty generation.
		stage("score", 0)
		stats, err := m.Cacher.PopulateCtx(stageCtx(), nil)
		report.Cache = stats
		stage("populate", 0)
		finish()
		if err != nil {
			return report, fmt.Errorf("core: cache clear failed: %w", err)
		}
		return report, nil
	}

	if err := checkpoint("score"); err != nil {
		return report, err
	}

	// Stage 4: score against the same history window of queries.
	queries := m.Collector.Queries(histStart, now)
	profiles := m.Scorer.Profile(candidates, queries, mpjpSet)

	var selected []*PathProfile
	if m.UseRandomSelection {
		selected = RandomSelectUnderBudget(profiles, m.BudgetBytes, m.RandomSeed)
	} else {
		selected = SelectUnderBudget(profiles, m.BudgetBytes)
	}
	report.Selected = len(selected)
	stage("score", len(profiles))

	if err := checkpoint("populate"); err != nil {
		return report, err
	}

	// Stage 5: build the next cache generation under the budget.
	stats, err := m.Cacher.PopulateCtx(stageCtx(), selected)
	report.Cache = stats
	stage("populate", stats.PathsCached, "splits_carried", stats.SplitsCarried,
		"splits_rewritten", stats.SplitsRewritten, "splits_extracted", stats.SplitsExtracted,
		"bytes_carried", stats.BytesCarried, "bytes_written", stats.BytesWritten)
	finish()
	if err != nil {
		return report, fmt.Errorf("core: cache population failed: %w", err)
	}
	return report, nil
}

// CacheSelected bypasses prediction and caches an explicit MPJP selection —
// the mode the budget/selection experiments (Fig 11, Table V, Fig 15) use
// so the caching layer can be studied with a controlled MPJP set.
func (m *Maxson) CacheSelected(ctx context.Context, profiles []*PathProfile) (CacheStats, error) {
	return m.Cacher.PopulateCtx(ctx, profiles)
}

// AdvanceToMidnight moves a simulated clock to the next midnight, the
// cycle's scheduled time. It is a no-op for wall clocks.
func (m *Maxson) AdvanceToMidnight() {
	if sim, ok := m.wh.Clock().(*simtime.Sim); ok {
		sim.Set(simtime.NextMidnight(sim.Now()))
	}
}

// modelPath is where SaveState persists the trained predictor weights.
const modelPath = "/maxson_meta/predictor.weights"

// statePath is where SaveState persists the cache registry snapshot.
const statePath = "/maxson_meta/cache.state"

// stateMagic brands the registry snapshot file; a file without it is not a
// state file at all (versioned: bump the trailing digits on format change).
const stateMagic = "MAXST001"

// persistedState is the JSON payload of the cache.state file.
type persistedState struct {
	Generation  int           `json:"generation"`
	PendingDrop [][2]string   `json:"pending_drop,omitempty"`
	Entries     []*CacheEntry `json:"entries,omitempty"`
}

// encodeState frames a snapshot as magic + CRC32(payload) + JSON payload,
// so LoadState can tell a torn or corrupted file from a valid one.
func encodeState(st *persistedState) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(stateMagic)+4+len(payload))
	buf = append(buf, stateMagic...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// decodeState validates the framing written by encodeState. Any mismatch —
// missing magic, truncated header, checksum failure, malformed JSON —
// returns a distinct error naming what was wrong.
func decodeState(blob []byte) (*persistedState, error) {
	if len(blob) < len(stateMagic)+4 {
		return nil, fmt.Errorf("core: state file truncated: %d bytes, need at least %d", len(blob), len(stateMagic)+4)
	}
	if string(blob[:len(stateMagic)]) != stateMagic {
		return nil, fmt.Errorf("core: state file has bad magic %q (want %q)", blob[:len(stateMagic)], stateMagic)
	}
	payload := blob[len(stateMagic)+4:]
	want := binary.BigEndian.Uint32(blob[len(stateMagic):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("core: state file checksum mismatch: got %08x want %08x (partial write?)", got, want)
	}
	var st persistedState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("core: state file payload corrupt: %w", err)
	}
	return &st, nil
}

// SaveState persists the collector statistics (into the warehouse stats
// table), the cache registry snapshot, and, when the model supports it, the
// trained predictor weights — everything a restarted node needs to serve
// from cache and run the next midnight cycle without retraining. Both files
// are written atomically (temp + rename), so a crash mid-save leaves the
// previous state intact rather than a torn file.
func (m *Maxson) SaveState() error {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	if _, err := m.Collector.SaveStats(m.wh); err != nil {
		return err
	}
	gen, pending := m.Cacher.StateSnapshot()
	blob, err := encodeState(&persistedState{
		Generation:  gen,
		PendingDrop: pending,
		Entries:     m.Registry.Entries(),
	})
	if err != nil {
		return err
	}
	if err := m.wh.FS().WriteFileAtomic(statePath, blob); err != nil {
		return err
	}
	saver, ok := m.Model.(*LSTMCRF)
	if !ok || !m.ModelTrained {
		return nil
	}
	weights, err := saver.SaveWeights()
	if err != nil {
		return err
	}
	return m.wh.FS().WriteFileAtomic(modelPath, weights)
}

// LoadState restores statistics, the cache registry, and predictor weights
// saved by SaveState. Missing state is not an error (fresh deployment); a
// present-but-corrupt state file IS one, with a message naming the defect.
//
// Recovery semantics: registry entries whose cache tables still exist are
// rolled forward; entries whose tables vanished are discarded; cache tables
// on disk that no entry references (a midnight cycle that died mid-populate
// left them behind) are swept. Either way the node comes up consistent
// without manual cleanup.
func (m *Maxson) LoadState() error {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	if _, err := m.Collector.LoadStats(m.wh); err != nil {
		return err
	}
	if err := m.loadRegistryState(); err != nil {
		return err
	}
	loader, ok := m.Model.(*LSTMCRF)
	if !ok || !m.wh.FS().Exists(modelPath) {
		return nil
	}
	blob, err := m.wh.FS().ReadFile(modelPath)
	if err != nil {
		return err
	}
	if err := loader.LoadWeights(blob); err != nil {
		return err
	}
	m.ModelTrained = true
	return nil
}

func (m *Maxson) loadRegistryState() error {
	st := &persistedState{}
	if m.wh.FS().Exists(statePath) {
		blob, err := m.wh.FS().ReadFile(statePath)
		if err != nil {
			return err
		}
		if st, err = decodeState(blob); err != nil {
			return err
		}
	}

	// Roll forward entries whose cache tables survived; discard the rest.
	kept := make([]*CacheEntry, 0, len(st.Entries))
	live := make(map[string]bool)
	discarded := 0
	for _, e := range st.Entries {
		if m.wh.TableExists(e.CacheDB, e.CacheTable) {
			kept = append(kept, e)
			live[e.CacheDB+"/"+e.CacheTable] = true
		} else {
			discarded++
		}
	}
	m.Registry.Swap(kept)
	m.Cacher.RestoreState(st.Generation, st.PendingDrop)
	for _, t := range st.PendingDrop {
		live[t[0]+"/"+t[1]] = true // still queued for deferred deletion
	}

	// Sweep orphans: cache tables no entry references and no drop queue
	// owns — the debris of a cycle that died between creating tables and
	// the registry swap.
	swept := 0
	for _, table := range m.wh.ListTables(CacheDB) {
		if live[CacheDB+"/"+table] {
			continue
		}
		if err := m.wh.DropTable(CacheDB, table); err == nil {
			swept++
		}
	}
	if discarded > 0 || swept > 0 {
		m.Log.Warn("state recovery", "entries_kept", len(kept),
			"entries_discarded", discarded, "orphan_tables_swept", swept)
	}
	return nil
}

// epochDay returns the absolute day number of t, anchoring the calendar
// features so training and prediction windows agree on day-of-week.
func epochDay(t time.Time) int64 {
	return t.UTC().Unix() / 86400
}

func sortedCountKeys(counts map[pathkey.Key][]int) []pathkey.Key {
	keys := make([]pathkey.Key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	// insertion sort by pathkey.Less keeps this dependency-free
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && pathkey.Less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
