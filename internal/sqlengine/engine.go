package sqlengine

import (
	"context"
	"runtime"
	"strings"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/warehouse"
)

// Engine executes SQL against a warehouse, SparkSQL-style. Engines are safe
// for concurrent Query calls.
type Engine struct {
	wh          *warehouse.Warehouse
	backend     ParserBackend
	parallelism int
	defaultDB   string
	sparser     bool
	// batchSize is the rows-per-batch of the vectorized scan pipeline.
	batchSize int
	// PlanModifier, when set, rewrites physical plans after planning —
	// Maxson installs its MaxsonParser here. The returned extra node count
	// is added to PlanExprNodes so Fig 13 sees the modification overhead.
	PlanModifier func(plan *PhysicalPlan, stmt *SelectStmt) (extraNodes int64, err error)

	// scanShare, when set, batches compatible concurrent scans into one
	// shared pass (internal/scanshare). Consulted after planning, before
	// execution; nil means every query scans for itself.
	scanShare ScanSharer

	// obsReg publishes engine-lifetime totals; obsC holds the pre-resolved
	// counter handles so per-query publication is lock-free.
	obsReg *obs.Registry
	obsC   *engineCounters
}

// engineCounters are the engine's registry instruments, resolved once so
// the per-query publish path never touches the registry lock.
type engineCounters struct {
	queries          *obs.Counter
	bytesRead        *obs.Counter
	rowsScanned      *obs.Counter
	rowGroupsRead    *obs.Counter
	rowGroupsSkipped *obs.Counter
	parseDocs        *obs.Counter
	parseBytes       *obs.Counter
	parseSkipped     *obs.Counter
	parseCalls       *obs.Counter
	rowOps           *obs.Counter
	prefilterSkipped *obs.Counter
	cacheValuesRead  *obs.Counter
	cacheMisses      *obs.Counter
	splitPanics      *obs.Counter
	ioRetries        *obs.Counter
	wallNanos        *obs.Histogram
	batchRows        *obs.Histogram
}

func newEngineCounters(r *obs.Registry) *engineCounters {
	return &engineCounters{
		queries:          r.Counter("engine_queries_total"),
		bytesRead:        r.Counter("engine_bytes_read_total"),
		rowsScanned:      r.Counter("engine_rows_scanned_total"),
		rowGroupsRead:    r.Counter("engine_rowgroups_read_total"),
		rowGroupsSkipped: r.Counter("engine_rowgroups_skipped_total"),
		parseDocs:        r.Counter("engine_parse_docs_total"),
		parseBytes:       r.Counter("engine_parse_bytes_total"),
		parseSkipped:     r.Counter("engine_parse_bytes_skipped_total"),
		parseCalls:       r.Counter("engine_parse_calls_total"),
		rowOps:           r.Counter("engine_row_ops_total"),
		prefilterSkipped: r.Counter("engine_prefilter_skipped_total"),
		cacheValuesRead:  r.Counter("engine_cache_values_read_total"),
		cacheMisses:      r.Counter("engine_cache_misses_total"),
		splitPanics:      r.Counter("engine_split_panics_total"),
		ioRetries:        r.Counter("engine_io_retries_total"),
		wallNanos:        r.Histogram("engine_query_wall_ns"),
		batchRows:        r.Histogram("engine_batch_rows_count"),
	}
}

// publish folds one finished query's metrics into the engine totals.
func (c *engineCounters) publish(m *Metrics) {
	if c == nil {
		return
	}
	c.queries.Inc()
	c.bytesRead.Add(m.BytesRead.Load())
	c.rowsScanned.Add(m.RowsScanned.Load())
	c.rowGroupsRead.Add(m.RowGroupsRead.Load())
	c.rowGroupsSkipped.Add(m.RowGroupsSkipped.Load())
	pc := m.Parse.Snapshot()
	c.parseDocs.Add(pc.Docs)
	c.parseBytes.Add(pc.Bytes)
	c.parseSkipped.Add(pc.Skipped)
	c.parseCalls.Add(pc.Calls)
	c.rowOps.Add(m.RowOps.Load())
	c.prefilterSkipped.Add(m.PrefilterSkipped.Load())
	c.cacheValuesRead.Add(m.CacheValuesRead.Load())
	c.cacheMisses.Add(m.CacheMisses.Load())
	c.wallNanos.Observe(int64(m.WallTime))
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithBackend replaces the streaming JSON evaluator with another
// ParserBackend. Production code never does; it is the seam through which the
// experiments install the paper's Jackson and Mison baselines.
func WithBackend(b ParserBackend) EngineOption {
	return func(e *Engine) {
		if b != nil {
			e.backend = b
		}
	}
}

// WithParallelism caps concurrent partitions (default GOMAXPROCS).
func WithParallelism(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.parallelism = n
		}
	}
}

// WithDefaultDB sets the database used by unqualified table names.
func WithDefaultDB(db string) EngineOption {
	return func(e *Engine) { e.defaultDB = db }
}

// WithSparser enables Sparser-style raw-byte prefiltering: selective
// string-equality predicates on JSON paths skip parsing for documents that
// cannot match.
func WithSparser(on bool) EngineOption {
	return func(e *Engine) { e.sparser = on }
}

// WithBatchSize sets how many rows each scan batch carries through the
// vectorized execution pipeline (default DefaultBatchSize). Values < 1 are
// ignored. Small batches trade cache locality for lower latency-to-first-row;
// the default suits analytical scans.
func WithBatchSize(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.batchSize = n
		}
	}
}

// NewEngine builds an engine over a warehouse.
func NewEngine(wh *warehouse.Warehouse, opts ...EngineOption) *Engine {
	e := &Engine{
		wh:          wh,
		backend:     StreamBackend{},
		parallelism: runtime.GOMAXPROCS(0),
		defaultDB:   "default",
		batchSize:   DefaultBatchSize,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Warehouse returns the engine's warehouse.
func (e *Engine) Warehouse() *warehouse.Warehouse { return e.wh }

// SetObsRegistry installs (or replaces) the engine's metrics registry. It
// is a no-op when r is nil; call before serving queries.
func (e *Engine) SetObsRegistry(r *obs.Registry) {
	if r == nil {
		return
	}
	e.obsReg = r
	e.obsC = newEngineCounters(r)
	c := e.obsC
	e.wh.SetRetryNotify(func() { c.ioRetries.Inc() })
	r.GaugeFunc("engine_row_batches_outstanding_count", OutstandingBatches)
}

// ObsRegistry returns the attached metrics registry (nil when none).
func (e *Engine) ObsRegistry() *obs.Registry { return e.obsReg }

// nowWall reads the wall clock for WallTime metering.
func (e *Engine) nowWall() time.Duration {
	return time.Duration(time.Now().UnixNano())
}

// QueryCtx parses, plans, and executes one SELECT. The returned metrics carry
// both plan-time and execution-time accounting. Cancellation and deadlines
// are honored at batch boundaries, so the call returns within one batch of
// the context being cancelled.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*ResultSet, *Metrics, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return e.QueryStmtCtx(ctx, stmt)
}

// QueryStmtCtx plans and executes a parsed statement under a context.
func (e *Engine) QueryStmtCtx(ctx context.Context, stmt *SelectStmt) (*ResultSet, *Metrics, error) {
	_, rs, m, err := e.queryStmt(ctx, stmt, false)
	return rs, m, err
}

// planStmt plans stmt and runs the PlanModifier over the result. It returns
// the expression nodes visited beside the plan, the modifier's included.
func (e *Engine) planStmt(stmt *SelectStmt) (*PhysicalPlan, int64, error) {
	plan, err := e.Plan(stmt)
	if err != nil {
		return nil, 0, err
	}
	// Count statement nodes before the modifier runs: plan expressions can
	// alias statement expressions, and the modifier rewrites them in place.
	nodes := countPlanNodes(stmt)
	if e.PlanModifier != nil {
		extra, err := e.PlanModifier(plan, stmt)
		if err != nil {
			return nil, 0, err
		}
		nodes += extra
	}
	return plan, nodes, nil
}

// queryStmt plans and executes one statement, optionally recording a span
// tree (plan → per-split scan → aggregate/sort/…) into Metrics.Trace, and
// also returns the physical plan (EXPLAIN ANALYZE renders from it).
func (e *Engine) queryStmt(ctx context.Context, stmt *SelectStmt, traced bool) (*PhysicalPlan, *ResultSet, *Metrics, error) {
	planStart := time.Now()
	plan, planNodes, err := e.planStmt(stmt)
	if err != nil {
		return nil, nil, nil, err
	}
	planWall := time.Since(planStart)

	if stmt.Explain {
		m := &Metrics{PlanWall: planWall, PlanExprNodes: planNodes}
		rs := &ResultSet{Columns: []string{"plan"}}
		for _, line := range strings.Split(plan.String(), "\n") {
			rs.Rows = append(rs.Rows, []datum.Datum{datum.Str(line)})
		}
		return plan, rs, m, nil
	}

	// Offer the plan to the shared-scan scheduler. Traced queries keep
	// their own pass (spans describe a private scan), as do joins (two
	// scans, one plan — not worth the pairing complexity).
	if e.scanShare != nil && !traced && plan.Join == nil {
		h, err := e.scanShare.Attach(ctx, e, plan)
		if err != nil {
			return nil, nil, nil, err
		}
		if h != nil {
			defer h.Release()
		}
	}

	var trace *obs.Span
	if traced {
		trace = obs.NewSpan("query")
		trace.SetWindow(planStart, time.Time{}) // root covers planning too
		planSpan := trace.Child("plan")
		planSpan.SetWindow(planStart, planStart.Add(planWall))
		planSpan.SetInt("expr-nodes", planNodes)
	}
	rs, m, err := e.execute(ctx, plan, trace)
	if err != nil {
		return nil, nil, nil, err
	}
	m.PlanWall = planWall
	m.PlanExprNodes = planNodes
	// Correlate the metrics (and through them the scan spans) with the
	// flight recorder's query ID when one rides the context.
	m.QueryID = flight.FromContext(ctx).ID()
	return plan, rs, m, nil
}

// PlanOnly parses and plans without executing; used by the Fig 13 plan-time
// experiment.
func (e *Engine) PlanOnly(sql string) (*PhysicalPlan, *Metrics, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	planStart := time.Now()
	plan, planNodes, err := e.planStmt(stmt)
	if err != nil {
		return nil, nil, err
	}
	return plan, &Metrics{PlanWall: time.Since(planStart), PlanExprNodes: planNodes}, nil
}

// countPlanNodes counts expression nodes across the statement — the unit of
// plan-generation work in the Fig 13 comparison.
func countPlanNodes(stmt *SelectStmt) int64 {
	var n int64
	for _, it := range stmt.Items {
		if !it.Star {
			n += CountExprNodes(it.Expr)
		}
	}
	if stmt.Where != nil {
		n += CountExprNodes(stmt.Where)
	}
	for _, g := range stmt.GroupBy {
		n += CountExprNodes(g)
	}
	for _, o := range stmt.OrderBy {
		n += CountExprNodes(o.Expr)
	}
	if stmt.Join != nil {
		n += CountExprNodes(stmt.Join.On)
	}
	return n
}
