package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/pathkey"
	"repro/internal/scanshare"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
)

// MQOBenchResult quantifies shared-scan (multi-query) execution: N
// concurrent identical-table queries run against a plain engine, and twice
// in a row against an engine with the scanshare scheduler, and the result
// compares total parse work against a single query's. A third burst of N
// queries over one cached table, each asking a different subset of its
// cached paths, compares cache reads and parse work against one query over
// the union of the subsets.
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

	// The overlap burst: N queries on a contended fingerprint of a Maxson
	// system, each reading a different subset of the table's cached paths
	// and one shared uncached path. UnionCacheValues and UnionParseBytes are
	// one unshared query over all of those paths; OverlapCacheValues and
	// OverlapParseBytes sum the burst. One pass over the union of the
	// subsets reads exactly the union query's cache values (the CI bar) and
	// parses the uncached path once (bar: OverlapParseRatio <= 1.5).
	UnionCacheValues   int64
	UnionParseBytes    int64
	OverlapCacheValues int64
	OverlapParseBytes  int64
	OverlapCacheRatio  float64
	OverlapParseRatio  float64
	OverlapCoalesced   int64
	OverlapGroups      int64
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
	fmt.Fprintf(&b, "coalesced %d queries into %d group(s)\n", r.Coalesced, r.Groups)
	fmt.Fprintf(&b, "overlap burst, N=%d subsets of %d cached paths + 1 uncached path\n", r.N, len(mqoCachedPaths))
	fmt.Fprintf(&b, "%-28s %14s %14s\n", "measure", "cache values", "parse bytes")
	fmt.Fprintf(&b, "%-28s %14d %14d\n", "union query", r.UnionCacheValues, r.UnionParseBytes)
	fmt.Fprintf(&b, "%-28s %14d %14d\n", "N overlapping shared total", r.OverlapCacheValues, r.OverlapParseBytes)
	fmt.Fprintf(&b, "overlap/union: cache values %.2fx (bar: 1.00x), parse %.2fx (bar: <= 1.50x)\n", r.OverlapCacheRatio, r.OverlapParseRatio)
	fmt.Fprintf(&b, "coalesced %d queries into %d group(s)", r.OverlapCoalesced, r.OverlapGroups)
	return b.String()
}

// mqoBenchSystem builds a raw JSON table and an engine, optionally with the
// scanshare scheduler installed, returning the scheduler's registry.
func mqoBenchSystem(rows int, seed int64, window time.Duration, maxQ int) (*sqlengine.Engine, *obs.Registry, error) {
	batch := make([][]datum.Datum, 0, rows)
	for i := 0; i < rows; i++ {
		doc := fmt.Sprintf(`{"a":%d,"b":"g%d","nested":{"x":%d,"y":"%s"},"pad":"%s"}`,
			(i*7+int(seed))%100, i%8, i%80, strings.Repeat("y", 24), strings.Repeat("p", 64))
		batch = append(batch, []datum.Datum{datum.Int(int64(i)), datum.Str(doc)})
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 256})
	if err := bed.Load(24*time.Hour, testbed.Table{DB: "bench", Name: "t", Schema: testbed.IDDoc, Parts: [][][]datum.Datum{batch}}); err != nil {
		return nil, nil, err
	}

	e := sqlengine.NewEngine(bed.WH,
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

// mqoRun fires sqls concurrently, barrier-started, and returns the summed
// parse bytes and cache values read.
func mqoRun(ctx context.Context, e *sqlengine.Engine, sqls []string) (parse, cacheValues int64, err error) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := make(chan struct{})
	for _, sql := range sqls {
		wg.Add(1)
		go func(sql string) {
			defer wg.Done()
			<-start
			_, m, qerr := e.QueryCtx(ctx, sql)
			mu.Lock()
			defer mu.Unlock()
			if qerr != nil && err == nil {
				err = qerr
			}
			if m != nil {
				parse += m.Parse.Bytes.Load()
				cacheValues += m.CacheValuesRead.Load()
			}
		}(sql)
	}
	close(start)
	wg.Wait()
	return parse, cacheValues, err
}

// mqoCachedPaths are the overlap burst's cached paths; mqoSubsets are the
// subsets of them its queries ask, whose union is all of them.
var (
	mqoCachedPaths = []string{"$.a", "$.b", "$.nested.x", "$.nested.y"}
	mqoSubsets     = [][]string{
		{"$.a"}, {"$.b"}, {"$.nested.x"}, {"$.nested.y"},
		{"$.a", "$.b"}, {"$.nested.x", "$.nested.y"}, {"$.a", "$.nested.x"}, {"$.b", "$.nested.y"},
	}
)

// mqoOverlapSQL asks paths of the cached table and its uncached $.pad.
func mqoOverlapSQL(paths []string) string {
	var items []string
	for i, p := range paths {
		items = append(items, fmt.Sprintf("get_json_object(doc, '%s') c%d", p, i))
	}
	return "SELECT id, " + strings.Join(items, ", ") + ", get_json_object(doc, '$.pad') pad FROM bench.t ORDER BY id"
}

// mqoCachedSystem is mqoBenchSystem's table under a Maxson system that
// caches mqoCachedPaths, with the scheduler when window is positive.
func mqoCachedSystem(ctx context.Context, rows int, seed int64, window time.Duration, maxQ int) (*sqlengine.Engine, *obs.Registry, error) {
	e, _, err := mqoBenchSystem(rows, seed, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	m := core.New(e, core.Config{BudgetBytes: 1 << 30, DefaultDB: "bench", Obs: reg,
		ScanShareWindow: window, ScanShareMaxQueries: maxQ})
	var profiles []*core.PathProfile
	for _, p := range mqoCachedPaths {
		profiles = append(profiles, &core.PathProfile{
			Key: pathkey.Key{DB: "bench", Table: "t", Column: "doc", Path: p}, TotalValueBytes: 1})
	}
	if _, err := m.CacheSelected(ctx, profiles); err != nil {
		return nil, nil, err
	}
	return e, reg, nil
}

// runOverlapBurst fills res's overlap fields: the union query runs on a
// cached system of its own; on one with the scheduler, two copies of the
// burst's first query fired together make its fingerprint contended (the
// second marks it), and the burst follows.
func runOverlapBurst(ctx context.Context, rows int, seed int64, res *MQOBenchResult) error {
	plain, _, err := mqoCachedSystem(ctx, rows, seed, 0, 0)
	if err != nil {
		return err
	}
	_, um, err := plain.QueryCtx(ctx, mqoOverlapSQL(mqoCachedPaths))
	if err != nil {
		return err
	}
	res.UnionCacheValues, res.UnionParseBytes = um.CacheValuesRead.Load(), um.Parse.Bytes.Load()

	shared, reg, err := mqoCachedSystem(ctx, rows, seed, 25*time.Millisecond, len(mqoSubsets))
	if err != nil {
		return err
	}
	sqls := make([]string, len(mqoSubsets))
	for i, paths := range mqoSubsets {
		sqls[i] = mqoOverlapSQL(paths)
	}
	if _, _, err := mqoRun(ctx, shared, []string{sqls[0], sqls[0]}); err != nil {
		return err
	}
	coalesced := reg.Counter("scanshare_queries_coalesced_total")
	groups := reg.Counter("scanshare_groups_total")
	coalesced0, groups0 := coalesced.Value(), groups.Value()
	if res.OverlapParseBytes, res.OverlapCacheValues, err = mqoRun(ctx, shared, sqls); err != nil {
		return err
	}
	res.OverlapCoalesced, res.OverlapGroups = coalesced.Value()-coalesced0, groups.Value()-groups0
	if res.UnionCacheValues > 0 {
		res.OverlapCacheRatio = float64(res.OverlapCacheValues) / float64(res.UnionCacheValues)
	}
	if res.UnionParseBytes > 0 {
		res.OverlapParseRatio = float64(res.OverlapParseBytes) / float64(res.UnionParseBytes)
	}
	return nil
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
	copies := make([]string, n)
	for i := range copies {
		copies[i] = sql
	}
	unsharedTotal, _, err := mqoRun(ctx, plain, copies)
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
	coldTotal, _, err := mqoRun(ctx, shared, copies)
	if err != nil {
		return nil, fmt.Errorf("mqo bench cold shared run: %w", err)
	}
	coalesced := reg.Counter("scanshare_queries_coalesced_total")
	groups := reg.Counter("scanshare_groups_total")
	saved := reg.Counter("scanshare_parse_bytes_saved_total")
	coalesced0, groups0, saved0 := coalesced.Value(), groups.Value(), saved.Value()
	sharedTotal, _, err := mqoRun(ctx, shared, copies)
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
	if err := runOverlapBurst(ctx, rows, seed, res); err != nil {
		return nil, fmt.Errorf("mqo bench overlap burst: %w", err)
	}
	return res, nil
}
