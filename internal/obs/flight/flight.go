// Package flight is the per-query flight recorder: every query gets a
// monotonically increasing ID and, on completion, a structured QueryRecord
// — SQL, plan mode, stage timings, scan/parse/cache work, retries, error —
// published into a bounded lock-free ring buffer. Records carry per-query
// metric *deltas* computed from pre/post counter values, so the
// process-lifetime counters in internal/obs become attributable to
// individual queries. The pre state is a pooled position-stable []int64 from
// Registry.CounterValues — one atomic load per registered counter, no map,
// gauge, or histogram copies — so Begin/Finish stay cheap relative to the
// tiny queries that dominate interactive load.
//
// The recorder is nil-safe end to end: a nil *Recorder disables recording
// (Begin returns nil, every Active method no-ops), so the query hot path
// pays a single pointer test when the recorder is off.
package flight

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults for Options left zero.
const (
	DefaultCapacity      = 256
	DefaultSlowCapacity  = 64
	DefaultSlowThreshold = 500 * time.Millisecond
)

// Stage is one measured phase of a query (plan, execute).
type Stage struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// Totals is the per-query work the caller copies out of the engine's
// Metrics at completion. Plain ints: the query is done, nothing races.
type Totals struct {
	BytesRead         int64
	ParseDocs         int64
	ParseBytes        int64
	ParseBytesSkipped int64
	RowsScanned       int64
	RowsOut           int64
	Batches           int64
	CacheValues       int64
	CacheMisses       int64
}

// QueryRecord is one completed query. Records are immutable once published.
type QueryRecord struct {
	ID       uint64    `json:"id"`
	SQL      string    `json:"sql"`
	Start    time.Time `json:"start"`
	WallNS   int64     `json:"wall_ns"`
	PlanMode string    `json:"plan_mode"`
	Stages   []Stage   `json:"stages,omitempty"`

	BytesRead         int64 `json:"bytes_read"`
	ParseDocs         int64 `json:"parse_docs"`
	ParseBytes        int64 `json:"parse_bytes"`
	ParseBytesSkipped int64 `json:"parse_bytes_skipped"`
	RowsScanned       int64 `json:"rows_scanned"`
	RowsOut           int64 `json:"rows_out"`
	Batches           int64 `json:"batches"`
	CacheValues       int64 `json:"cache_values"`
	CacheMisses       int64 `json:"cache_misses"`

	Retries int    `json:"retries"`
	Panics  int64  `json:"panics"`
	Err     string `json:"err,omitempty"`
	Slow    bool   `json:"slow"`

	// Deltas holds every counter series the query moved (post minus pre
	// registry snapshot). Concurrent queries overlap their windows, so a
	// delta is exact under serial load and an attribution upper bound under
	// concurrency.
	Deltas map[string]int64 `json:"metric_deltas,omitempty"`
}

// Options configures a Recorder.
type Options struct {
	// Capacity bounds the recent-query ring (default DefaultCapacity).
	Capacity int
	// SlowCapacity bounds the slow-query ring (default DefaultSlowCapacity).
	SlowCapacity int
	// SlowThreshold marks queries at/above this wall time as slow (default
	// DefaultSlowThreshold); slow queries land in the slow ring and emit one
	// structured slog line.
	SlowThreshold time.Duration
	// Log receives slow-query lines (nil = silent).
	Log *slog.Logger
}

// Recorder assigns query IDs and keeps the bounded record rings. Writers
// publish with an atomic cursor bump plus an atomic pointer store; readers
// load pointers — no locks on either side, records are immutable.
type Recorder struct {
	reg    *obs.Registry
	log    *slog.Logger
	slowNS int64

	seq      atomic.Uint64
	inflight atomic.Int64

	cur   atomic.Uint64
	slots []atomic.Pointer[QueryRecord]

	slowCur   atomic.Uint64
	slowSlots []atomic.Pointer[QueryRecord]

	// activeMu guards the in-flight query set: Begin registers, Finish
	// unregisters, ActiveQueries snapshots — the live view that makes a
	// stuck query visible before it ever publishes a record.
	activeMu sync.Mutex
	active   map[uint64]*Active

	recorded *obs.Counter
	slow     *obs.Counter
}

// New builds a recorder over the registry whose counters it will diff
// per query. reg may be nil (records then carry no deltas).
func New(reg *obs.Registry, opts Options) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.SlowCapacity <= 0 {
		opts.SlowCapacity = DefaultSlowCapacity
	}
	if opts.SlowThreshold <= 0 {
		opts.SlowThreshold = DefaultSlowThreshold
	}
	r := &Recorder{
		reg:       reg,
		log:       opts.Log,
		slowNS:    opts.SlowThreshold.Nanoseconds(),
		slots:     make([]atomic.Pointer[QueryRecord], opts.Capacity),
		slowSlots: make([]atomic.Pointer[QueryRecord], opts.SlowCapacity),
		active:    make(map[uint64]*Active),
	}
	if reg != nil {
		r.recorded = reg.Counter("flight_queries_recorded_total")
		r.slow = reg.Counter("flight_queries_slow_total")
		reg.GaugeFunc("flight_inflight_queries_count", func() int64 {
			return r.inflight.Load()
		})
	}
	return r
}

// Enabled reports whether the recorder records (nil-safe).
func (r *Recorder) Enabled() bool { return r != nil }

// Seq returns the last query ID assigned.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// preBufPool recycles the per-query pre-counter buffers; one buffer is held
// for each in-flight query between Begin and Finish.
var preBufPool = sync.Pool{New: func() any { return new([]int64) }}

// Active is one in-flight query's recording handle.
type Active struct {
	rec   *Recorder
	id    uint64
	sql   string
	start time.Time
	// pre holds every registry counter's value at Begin, in registration
	// order (obs.Registry.CounterValues). Returned to preBufPool at Finish.
	pre *[]int64

	mu      sync.Mutex
	stages  []Stage
	mode    string
	retries int
}

// Begin opens a record for one query, assigning its ID and snapshotting
// the registry for delta attribution. Nil-safe: a nil recorder returns a
// nil Active, and every Active method tolerates the nil receiver.
func (r *Recorder) Begin(sql string) *Active {
	if r == nil {
		return nil
	}
	a := &Active{rec: r, id: r.seq.Add(1), sql: sql, start: time.Now()}
	if r.reg != nil {
		buf := preBufPool.Get().(*[]int64)
		*buf = r.reg.CounterValues((*buf)[:0])
		a.pre = buf
	}
	r.inflight.Add(1)
	r.activeMu.Lock()
	r.active[a.id] = a
	r.activeMu.Unlock()
	return a
}

// ID returns the query's ID (0 for a nil Active).
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.id
}

// AddStage appends one named stage timing.
func (a *Active) AddStage(name string, d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.stages = append(a.stages, Stage{Name: name, NS: d.Nanoseconds()})
	a.mu.Unlock()
}

// SetMode records the query's plan mode (cached / combined / raw /
// fallback-raw / quarantined / error).
func (a *Active) SetMode(mode string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.mode = mode
	a.mu.Unlock()
}

// AddRetry counts one transparent re-plan (cache degradation).
func (a *Active) AddRetry() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.retries++
	a.mu.Unlock()
}

// Retries returns the re-plan count so far.
func (a *Active) Retries() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retries
}

// Finish closes the record — wall time, metric deltas, slow detection —
// and publishes it into the ring(s). It returns the published record (nil
// for a nil Active).
func (a *Active) Finish(t Totals, qerr error) *QueryRecord {
	if a == nil {
		return nil
	}
	r := a.rec
	wall := time.Since(a.start)
	a.mu.Lock()
	rec := &QueryRecord{
		ID:       a.id,
		SQL:      a.sql,
		Start:    a.start,
		WallNS:   wall.Nanoseconds(),
		PlanMode: a.mode,
		Stages:   a.stages,
		Retries:  a.retries,

		BytesRead:         t.BytesRead,
		ParseDocs:         t.ParseDocs,
		ParseBytes:        t.ParseBytes,
		ParseBytesSkipped: t.ParseBytesSkipped,
		RowsScanned:       t.RowsScanned,
		RowsOut:           t.RowsOut,
		Batches:           t.Batches,
		CacheValues:       t.CacheValues,
		CacheMisses:       t.CacheMisses,
	}
	a.mu.Unlock()
	if rec.PlanMode == "" {
		rec.PlanMode = "unknown"
	}
	if qerr != nil {
		rec.Err = qerr.Error()
	}
	if r.reg != nil && a.pre != nil {
		rec.Deltas = r.reg.CounterDeltas(*a.pre)
		rec.Panics = rec.Deltas["engine_split_panics_total"]
		preBufPool.Put(a.pre)
		a.pre = nil
	}
	rec.Slow = rec.WallNS >= r.slowNS

	r.activeMu.Lock()
	delete(r.active, a.id)
	r.activeMu.Unlock()
	r.inflight.Add(-1)
	slot := r.cur.Add(1) - 1
	r.slots[slot%uint64(len(r.slots))].Store(rec)
	if r.recorded != nil {
		r.recorded.Inc()
	}
	if rec.Slow {
		s := r.slowCur.Add(1) - 1
		r.slowSlots[s%uint64(len(r.slowSlots))].Store(rec)
		if r.slow != nil {
			r.slow.Inc()
		}
		if r.log != nil {
			r.log.Warn("slow query",
				"query_id", rec.ID, "wall", wall, "mode", rec.PlanMode,
				"bytes_read", rec.BytesRead, "parse_docs", rec.ParseDocs,
				"cache_values", rec.CacheValues, "retries", rec.Retries,
				"sql", truncateSQL(rec.SQL))
		}
	}
	return rec
}

// truncateSQL bounds the SQL echoed into log lines.
func truncateSQL(sql string) string {
	const max = 200
	if len(sql) <= max {
		return sql
	}
	return sql[:max] + "…"
}

// ActiveQuery is a point-in-time view of one in-flight query — what
// /debug/queries?state=active serves so a stuck query under load is visible
// before it ever finishes and publishes a QueryRecord.
type ActiveQuery struct {
	ID        uint64    `json:"id"`
	SQL       string    `json:"sql"`
	Start     time.Time `json:"start"`
	ElapsedNS int64     `json:"elapsed_ns"`
	// Mode/Stages/Retries reflect progress so far; a query stuck in its
	// first scan shows no stages, which is itself the diagnostic.
	Mode    string  `json:"mode,omitempty"`
	Stages  []Stage `json:"stages,omitempty"`
	Retries int     `json:"retries"`
}

// snapshot copies the Active's mutable progress under its lock.
func (a *Active) snapshot(now time.Time) ActiveQuery {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ActiveQuery{
		ID:        a.id,
		SQL:       a.sql,
		Start:     a.start,
		ElapsedNS: now.Sub(a.start).Nanoseconds(),
		Mode:      a.mode,
		Stages:    append([]Stage(nil), a.stages...),
		Retries:   a.retries,
	}
}

// ActiveQueries snapshots up to n in-flight queries, oldest first — the
// longest-running (most likely stuck) query leads. Nil-safe.
func (r *Recorder) ActiveQueries(n int) []ActiveQuery {
	if r == nil || n <= 0 {
		return nil
	}
	now := time.Now()
	r.activeMu.Lock()
	actives := make([]*Active, 0, len(r.active))
	for _, a := range r.active {
		actives = append(actives, a)
	}
	r.activeMu.Unlock()
	// IDs are monotonic, so ascending ID order is start order.
	sort.Slice(actives, func(i, j int) bool { return actives[i].id < actives[j].id })
	if n < len(actives) {
		actives = actives[:n]
	}
	out := make([]ActiveQuery, 0, len(actives))
	for _, a := range actives {
		out = append(out, a.snapshot(now))
	}
	return out
}

// Recent returns up to n records, newest first. Safe under concurrent
// writes: slots are atomic pointers to immutable records.
func (r *Recorder) Recent(n int) []*QueryRecord {
	if r == nil {
		return nil
	}
	return ringRead(&r.cur, r.slots, n)
}

// Slow returns up to n slow-query records, newest first.
func (r *Recorder) Slow(n int) []*QueryRecord {
	if r == nil {
		return nil
	}
	return ringRead(&r.slowCur, r.slowSlots, n)
}

func ringRead(cur *atomic.Uint64, slots []atomic.Pointer[QueryRecord], n int) []*QueryRecord {
	if n <= 0 {
		return nil
	}
	if n > len(slots) {
		n = len(slots)
	}
	written := cur.Load()
	if written < uint64(n) {
		n = int(written)
	}
	out := make([]*QueryRecord, 0, n)
	for i := 0; i < n; i++ {
		slot := (written - 1 - uint64(i)) % uint64(len(slots))
		if rec := slots[slot].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// ctxKey keys the Active handle in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the query's recording handle; the engine
// and scan layers retrieve it with FromContext to tag their work with the
// query ID.
func NewContext(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, a)
}

// FromContext returns the context's Active handle, nil when absent.
func FromContext(ctx context.Context) *Active {
	a, _ := ctx.Value(ctxKey{}).(*Active)
	return a
}
