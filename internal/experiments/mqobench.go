package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/scanshare"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// MQOBenchResult quantifies shared-scan (multi-query) execution: N
// concurrent identical-table queries run against a plain engine, and twice
// in a row against an engine with the scanshare scheduler, and the result
// compares total parse work against a single query's.
type MQOBenchResult struct {
	N int
	// SingleParseBytes is one unshared query's streamed parse bytes — the
	// floor any sharing scheme is measured against.
	SingleParseBytes int64
	// ColdSharedTotalParseBytes sums parse bytes over the first burst of N
	// on a fresh scheduler. Its first query runs at once and its second
	// marks the fingerprint contended without waiting, so both parse alone
	// and the other N-2 coalesce: three passes.
	ColdSharedTotalParseBytes int64
	// SharedTotalParseBytes sums parse bytes over the burst that follows,
	// whose fingerprint the cold burst left contended: all N coalesce and
	// the group parses once, so this approaches SingleParseBytes.
	SharedTotalParseBytes int64
	// UnsharedTotalParseBytes sums parse bytes over N concurrent queries on
	// an engine without the scheduler (≈ N × single).
	UnsharedTotalParseBytes int64
	// Ratio is SharedTotalParseBytes / SingleParseBytes. The acceptance bar
	// for the reproduction is ≤ 1.5: eight queries may not parse more than
	// one and a half queries' worth of bytes.
	Ratio float64
	// ColdRatio is ColdSharedTotalParseBytes / SingleParseBytes, the price
	// of admitting a lone query at once: reported, not barred.
	ColdRatio float64
	// Coalesced and Groups are the scheduler's own accounting for the
	// contended burst.
	Coalesced int64
	Groups    int64
	// ParseBytesSaved is the contended burst's share of
	// scanshare_parse_bytes_saved_total: bytes the coalesced siblings did
	// not re-parse.
	ParseBytesSaved int64
}

func (r *MQOBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shared-scan multi-query execution, N=%d identical queries\n", r.N)
	fmt.Fprintf(&b, "%-28s %14s\n", "measure", "bytes")
	fmt.Fprintf(&b, "%-28s %14d\n", "single query parse", r.SingleParseBytes)
	fmt.Fprintf(&b, "%-28s %14d\n", "N shared total parse, cold", r.ColdSharedTotalParseBytes)
	fmt.Fprintf(&b, "%-28s %14d\n", "N shared total parse", r.SharedTotalParseBytes)
	fmt.Fprintf(&b, "%-28s %14d\n", "N unshared total parse", r.UnsharedTotalParseBytes)
	fmt.Fprintf(&b, "%-28s %14d\n", "parse bytes saved", r.ParseBytesSaved)
	fmt.Fprintf(&b, "shared/single parse ratio: %.2fx (bar: <= 1.50x); cold burst %.2fx\n", r.Ratio, r.ColdRatio)
	fmt.Fprintf(&b, "coalesced %d queries into %d group(s)", r.Coalesced, r.Groups)
	return b.String()
}

// mqoBenchSystem builds a raw JSON table and an engine, optionally with the
// scanshare scheduler installed, returning the scheduler's registry.
func mqoBenchSystem(rows int, seed int64, window time.Duration, maxQ int) (*sqlengine.Engine, *obs.Registry, error) {
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New(dfs.WithClock(clock))
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 256}))
	wh.CreateDatabase("bench")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "id", Type: datum.TypeInt64},
		{Name: "doc", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("bench", "t", schema); err != nil {
		return nil, nil, err
	}
	batch := make([][]datum.Datum, 0, rows)
	for i := 0; i < rows; i++ {
		doc := fmt.Sprintf(`{"a":%d,"b":"g%d","nested":{"x":%d,"y":"%s"},"pad":"%s"}`,
			(i*7+int(seed))%100, i%8, i%80, strings.Repeat("y", 24), strings.Repeat("p", 64))
		batch = append(batch, []datum.Datum{datum.Int(int64(i)), datum.Str(doc)})
	}
	if _, err := wh.AppendRows("bench", "t", batch); err != nil {
		return nil, nil, err
	}
	clock.Advance(24 * time.Hour)

	e := sqlengine.NewEngine(wh,
		sqlengine.WithDefaultDB("bench"),
		sqlengine.WithParallelism(2))
	var reg *obs.Registry
	if window > 0 {
		reg = obs.NewRegistry()
		e.SetScanShare(scanshare.New(scanshare.Options{
			Window:     window,
			MaxQueries: maxQ,
			Obs:        reg,
		}))
	}
	return e, reg, nil
}

// mqoRun fires n copies of sql concurrently, barrier-started, and returns
// the summed parse bytes.
func mqoRun(ctx context.Context, e *sqlengine.Engine, sql string, n int) (int64, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int64
		first error
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, m, err := e.QueryCtx(ctx, sql)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			if m != nil {
				total += m.Parse.Bytes.Load()
			}
		}()
	}
	close(start)
	wg.Wait()
	return total, first
}

// RunMQOBench measures shared-scan execution with N identical concurrent
// queries under ctx (cancelling it aborts the in-flight runs). Feeds
// BENCH_mqo.json; the CI bench smoke runs it and fails above the bar.
func RunMQOBench(ctx context.Context, rows int, seed int64) (*MQOBenchResult, error) {
	const n = 8
	sql := `SELECT id, get_json_object(doc, '$.a') a, get_json_object(doc, '$.nested.x') x
	 FROM bench.t WHERE get_json_object(doc, '$.b') <> 'g9' ORDER BY id`

	// Baseline: one query on a plain engine.
	plain, _, err := mqoBenchSystem(rows, seed, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("mqo bench build (plain): %w", err)
	}
	_, pm, err := plain.QueryCtx(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("mqo bench single query: %w", err)
	}
	single := pm.Parse.Bytes.Load()

	// N concurrent on the plain engine: the duplicate-parse cost Maxson's
	// sharing removes.
	unsharedTotal, err := mqoRun(ctx, plain, sql, n)
	if err != nil {
		return nil, fmt.Errorf("mqo bench unshared run: %w", err)
	}

	// N concurrent with the scheduler, twice: a generous window so every
	// query that waits lands in one admission group regardless of machine
	// load. The cold burst makes the fingerprint contended; the second is
	// the one measured against the bar.
	shared, reg, err := mqoBenchSystem(rows, seed, 25*time.Millisecond, n)
	if err != nil {
		return nil, fmt.Errorf("mqo bench build (shared): %w", err)
	}
	coldTotal, err := mqoRun(ctx, shared, sql, n)
	if err != nil {
		return nil, fmt.Errorf("mqo bench cold shared run: %w", err)
	}
	coalesced := reg.Counter("scanshare_queries_coalesced_total")
	groups := reg.Counter("scanshare_groups_total")
	saved := reg.Counter("scanshare_parse_bytes_saved_total")
	coalesced0, groups0, saved0 := coalesced.Value(), groups.Value(), saved.Value()
	sharedTotal, err := mqoRun(ctx, shared, sql, n)
	if err != nil {
		return nil, fmt.Errorf("mqo bench shared run: %w", err)
	}

	res := &MQOBenchResult{
		N:                         n,
		SingleParseBytes:          single,
		ColdSharedTotalParseBytes: coldTotal,
		SharedTotalParseBytes:     sharedTotal,
		UnsharedTotalParseBytes:   unsharedTotal,
		Coalesced:                 coalesced.Value() - coalesced0,
		Groups:                    groups.Value() - groups0,
		ParseBytesSaved:           saved.Value() - saved0,
	}
	if single > 0 {
		res.Ratio = float64(sharedTotal) / float64(single)
		res.ColdRatio = float64(coldTotal) / float64(single)
	}
	return res, nil
}
