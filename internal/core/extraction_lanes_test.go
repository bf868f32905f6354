package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
	"repro/internal/warehouse"
)

// laneDocs are the documents every consumer of the extraction kernel is run
// over: objects, a non-object document, arrays with holes, explicit nulls,
// escapes, duplicate keys, one document damaged at its first token (which
// every path's scan meets, so it is NULL for every consumer), and one damaged
// only after its values (which a path reads when its own scan stops short
// of the damage, whatever set it is extracted with).
var laneDocs = []string{
	`{"a": 1, "nested": {"x": "deep"}, "arr": [{"k": 1}, {"k": 2}, {"j": 3}], "tail": "t"}`,
	`{"nested": {"x": null}, "arr": [], "a": "sé"}`,
	`{"arr": [{"k": [1, 2]}], "a": {"b": [true, null]}, "a": "second"}`,
	`[1, 2, 3]`,
	`{"a": 1.50, "arr": [5, {"k": "only"}]}`,
	`{"a" 1, "nested": {"x": 2}}`,
	`{}`,
	`{"a": 1.5, "nested": {"x": 2}} x`,
}

// lanePaths go through every consumer together: the root, point paths, an
// aliased spelling, wildcards, an index, and a path no document has.
var lanePaths = []string{"$", "$.a", "$['a']", "$.nested.x", "$.arr[*].k", "$.arr[1]", "$.missing"}

func laneSQL(paths []string) string {
	var items []string
	for i, p := range paths {
		// Inside a SQL string literal the bracket form is spelled $["a"].
		items = append(items, fmt.Sprintf(`get_json_object(doc, '%s') c%d`, strings.ReplaceAll(p, "'", `"`), i))
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM db.t"
}

// TestEveryConsumerMatchesParseEval runs root and non-root paths over one
// table through every consumer of the extraction kernel — the raw engine
// scan, populate followed by a cached read, ingest of a split appended after
// populate followed by a cached read, the combiner's fallback for that split
// once rewritten, and the merged shared scan — and requires
// each result to be byte-identical to the reference's get_json_object
// (refExtract: sjson.Parse + Path.Eval), at scan batch sizes 1 (the
// row-at-a-time walk), 3 and the default.
func TestEveryConsumerMatchesParseEval(t *testing.T) {
	for _, size := range []int{1, 3, sqlengine.DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch%d", size), func(t *testing.T) {
			everyConsumerMatchesParseEval(t, size)
		})
	}
}

// laneSystem builds an empty db.t (id, doc) and a Maxson over it.
func laneSystem(t *testing.T, batchSize int, cfg Config) (*simtime.Sim, *warehouse.Warehouse, *Maxson) {
	t.Helper()
	bed := testbed.New(testbed.Config{RowGroupRows: 4})
	if err := bed.Load(0, testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc}); err != nil {
		t.Fatal(err)
	}
	clock, wh := bed.Clock, bed.WH
	e := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("db"), sqlengine.WithParallelism(2),
		sqlengine.WithBatchSize(batchSize))
	cfg.BudgetBytes, cfg.DefaultDB = 1<<30, "db"
	return clock, wh, New(e, cfg)
}

func everyConsumerMatchesParseEval(t *testing.T, batchSize int) {
	build := func(cfg Config) (*simtime.Sim, *warehouse.Warehouse, *Maxson) {
		return laneSystem(t, batchSize, cfg)
	}
	var stored []string
	appendDocs := func(wh *warehouse.Warehouse, docs []string) (part string, rows [][]datum.Datum) {
		t.Helper()
		for _, d := range docs {
			rows = append(rows, []datum.Datum{datum.Int(int64(len(stored))), datum.Str(d)})
			stored = append(stored, d)
		}
		part, err := wh.AppendRows("db", "t", rows)
		if err != nil {
			t.Fatal(err)
		}
		return part, rows
	}
	check := func(consumer string, paths []string, rs *sqlengine.ResultSet) {
		t.Helper()
		if len(rs.Rows) != len(stored) {
			t.Fatalf("%s: %d rows, want %d", consumer, len(rs.Rows), len(stored))
		}
		for r, row := range rs.Rows {
			for c, p := range paths {
				if got, want := row[c].AsString(), refExtract(stored[r], jsonpath.MustCompile(p)).AsString(); got != want {
					t.Errorf("%s: doc %s path %s = %s, want %s", consumer, stored[r], p, got, want)
				}
			}
		}
	}

	clock, wh, m := build(Config{})
	appendDocs(wh, laneDocs[:4])
	appendDocs(wh, laneDocs[4:])

	// Raw engine scan.
	rs, qm, err := m.QueryCtx(context.Background(), laneSQL(lanePaths))
	if err != nil {
		t.Fatal(err)
	}
	check("raw scan", lanePaths, rs)
	if docs := qm.Parse.Docs.Load(); docs != int64(len(stored)) {
		t.Errorf("raw scan parsed %d docs for %d rows", docs, len(stored))
	}

	// Populate, then a cached read: nothing is parsed at query time.
	var profiles []*PathProfile
	for _, p := range lanePaths {
		if p == "$['a']" {
			continue // the same cache entry as $.a
		}
		key := pathkey.Key{DB: "db", Table: "t", Column: "doc", Path: p}
		profiles = append(profiles, &PathProfile{Key: key, TotalValueBytes: 1})
	}
	clock.Advance(time.Hour) // a cache no younger than its table is stale
	if _, err := m.CacheSelected(context.Background(), profiles); err != nil {
		t.Fatal(err)
	}
	rs, qm, err = m.QueryCtx(context.Background(), laneSQL(lanePaths))
	if err != nil {
		t.Fatal(err)
	}
	check("cached read", lanePaths, rs)
	if qm.Parse.Docs.Load() != 0 || qm.CacheValuesRead.Load() == 0 {
		t.Errorf("cached read parsed %d docs, read %d cache values", qm.Parse.Docs.Load(), qm.CacheValuesRead.Load())
	}

	// A split appended after populate: ingest extracts the cached columns
	// for it, so it too is read from the cache.
	clock.Advance(time.Hour)
	appended := []string{laneDocs[2], laneDocs[5], laneDocs[0]}
	part, rows := appendDocs(wh, appended)
	rs, qm, err = m.QueryCtx(context.Background(), laneSQL(lanePaths))
	if err != nil {
		t.Fatal(err)
	}
	check("ingested split", lanePaths, rs)
	if qm.Parse.Docs.Load() != 0 || qm.CacheMisses.Load() != 0 {
		t.Errorf("ingested split parsed %d docs, %d cache misses", qm.Parse.Docs.Load(), qm.CacheMisses.Load())
	}

	// The same split rewritten with its own rows is no longer at the version
	// the manifest files: the combiner's fallback extracts the cached columns
	// for it, the covered splits still come from the cache.
	if err := wh.RewriteFile("db", "t", part, rows); err != nil {
		t.Fatal(err)
	}
	rs, qm, err = m.QueryCtx(context.Background(), laneSQL(lanePaths))
	if err != nil {
		t.Fatal(err)
	}
	check("fallback split", lanePaths, rs)
	if docs := qm.Parse.Docs.Load(); docs != int64(len(appended)) || qm.CacheMisses.Load() == 0 {
		t.Errorf("fallback split parsed %d docs (want %d), %d cache misses", docs, len(appended), qm.CacheMisses.Load())
	}

	// Merged shared scan: three queries with overlapping path sets, one of
	// them projecting the root, coalesce into one pass over an uncached table.
	stored = nil
	_, wh, m = build(Config{ScanShareWindow: 5 * time.Second, ScanShareMaxQueries: 3})
	appendDocs(wh, laneDocs[:4])
	appendDocs(wh, laneDocs[4:])
	sets := [][]string{
		{"$", "$.a"},
		{"$.a", "$.arr[*].k", "$.missing"},
		{"$.nested.x", "$['a']", "$.arr[1]"},
	}
	// Two sequential queries less than a window apart mark the scan's
	// fingerprint contended, so the first of the three opens a group.
	for i := 0; i < 2; i++ {
		if _, _, err := m.QueryCtx(context.Background(), laneSQL(sets[0])); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]*sqlengine.ResultSet, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, paths := range sets {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			results[i], _, errs[i] = m.QueryCtx(context.Background(), sql)
		}(i, laneSQL(paths))
	}
	wg.Wait()
	for i, paths := range sets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		check(fmt.Sprintf("shared scan %d", i), paths, results[i])
	}
	if got := m.Obs().Snapshot().Counter("scanshare_queries_coalesced_total"); got != int64(len(sets)) {
		t.Errorf("coalesced %d queries, want %d in one shared pass", got, len(sets))
	}
}

// meterDocs is the split TestEveryConsumerMetersParseAlike reads: two
// consecutive byte-identical documents and one malformed one, the
// well-formed ones with a tail the early exit skips.
var meterDocs = []string{
	`{"a": 1, "b": "x", "pad": "` + strings.Repeat("p", 32) + `"}`,
	`{"a": 2, "b": "y", "pad": "` + strings.Repeat("q", 32) + `"}`,
	`{"a": 2, "b": "y", "pad": "` + strings.Repeat("q", 32) + `"}`,
	`{"a" 3, "b": "z"}`,
	`{"a": 4, "b": "w", "pad": "` + strings.Repeat("r", 32) + `"}`,
}

// TestEveryConsumerMetersParseAlike pins one metering rule for every reader
// of raw JSON: the raw query, populate, ingest, a fallback split and a 2-way
// merged shared pass all extract $.a and $.b from the same split through one batch
// kernel, so they read the same documents, bytes scanned and bytes skipped —
// the repeated document once, the malformed one as far as its error. The
// shared pass parsing exactly what one unshared query parses is what
// BENCH_mqo's 1.00x claims; a 2-way shared pass over a cached scan parses its
// uncached path exactly as one of its queries does alone.
func TestEveryConsumerMetersParseAlike(t *testing.T) {
	ctx := context.Background()
	paths := []string{"$.a", "$.b"}
	sql := laneSQL(paths)
	rows := make([][]datum.Datum, len(meterDocs))
	for i, d := range meterDocs {
		rows[i] = []datum.Datum{datum.Int(int64(i)), datum.Str(d)}
	}
	appendDocs := func(wh *warehouse.Warehouse) string {
		t.Helper()
		part, err := wh.AppendRows("db", "t", rows)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	type reading struct{ Docs, Bytes, Skipped int64 }
	of := func(m *sqlengine.Metrics) reading {
		pc := m.Parse.Snapshot()
		return reading{pc.Docs, pc.Bytes, pc.Skipped}
	}

	// The raw query: the reading every other consumer must match.
	clock, wh, m := laneSystem(t, sqlengine.DefaultBatchSize, Config{})
	appendDocs(wh)
	_, qm, err := m.QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	want := of(qm)
	if want.Docs != int64(len(meterDocs)-1) || want.Skipped == 0 {
		t.Fatalf("raw query metered %+v: want %d documents (the repeat not scanned again) and an early exit", want, len(meterDocs)-1)
	}

	// Populate.
	var profiles []*PathProfile
	for _, p := range paths {
		key := pathkey.Key{DB: "db", Table: "t", Column: "doc", Path: p}
		profiles = append(profiles, &PathProfile{Key: key, TotalValueBytes: 1})
	}
	clock.Advance(time.Hour)
	stats, err := m.CacheSelected(ctx, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesScanned != want.Bytes || stats.BytesSkipped != want.Skipped || stats.ParseErrors != 1 {
		t.Errorf("populate scanned %d bytes, skipped %d, met %d malformed documents; want %d, %d and 1",
			stats.BytesScanned, stats.BytesSkipped, stats.ParseErrors, want.Bytes, want.Skipped)
	}

	// The same documents appended: ingest extracts them as populate does.
	clock.Advance(time.Hour)
	scanned, skipped, malformed := m.Obs().Counter("cacher_parse_bytes_scanned_total"),
		m.Obs().Counter("cacher_parse_bytes_skipped_total"), m.Obs().Counter("cacher_parse_errors_total")
	scanned0, skipped0, malformed0 := scanned.Value(), skipped.Value(), malformed.Value()
	part := appendDocs(wh)
	if s, k, e := scanned.Value()-scanned0, skipped.Value()-skipped0, malformed.Value()-malformed0; s != want.Bytes || k != want.Skipped || e != 1 {
		t.Errorf("ingest scanned %d bytes, skipped %d, met %d malformed documents; want %d, %d and 1", s, k, e, want.Bytes, want.Skipped)
	}

	// Rewritten with its own rows, it is a split the cache does not cover.
	if err := wh.RewriteFile("db", "t", part, rows); err != nil {
		t.Fatal(err)
	}
	if _, qm, err = m.QueryCtx(ctx, sql); err != nil {
		t.Fatal(err)
	}
	if qm.ScanModes()&sqlengine.ScanFallbackUncovered == 0 {
		t.Fatalf("the appended split was not a fallback split (plan mode %s)", qm.PlanModeString())
	}
	if got := of(qm); got != want {
		t.Errorf("fallback split metered %+v, want %+v", got, want)
	}

	// A 2-way merged shared pass over an uncached copy, its fingerprint made
	// contended first.
	_, wh, m = laneSystem(t, sqlengine.DefaultBatchSize, Config{ScanShareWindow: 5 * time.Second, ScanShareMaxQueries: 2})
	appendDocs(wh)
	for i := 0; i < 2; i++ {
		if _, _, err := m.QueryCtx(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	metrics := make([]*sqlengine.Metrics, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range metrics {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, metrics[i], errs[i] = m.QueryCtx(ctx, sql)
		}(i)
	}
	wg.Wait()
	var shared reading
	for i, qm := range metrics {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		r := of(qm)
		shared.Docs, shared.Bytes, shared.Skipped = shared.Docs+r.Docs, shared.Bytes+r.Bytes, shared.Skipped+r.Skipped
	}
	if got := m.Obs().Snapshot().Counter("scanshare_queries_coalesced_total"); got != 2 {
		t.Fatalf("coalesced %d queries, want 2 in one shared pass", got)
	}
	if shared != want {
		t.Errorf("a 2-way shared pass metered %+v in all, one unshared query %+v", shared, want)
	}

	// A 2-way shared combined pass: $.a is cached, so the two statements,
	// which name it and the uncached $.b in different orders, share one
	// cached scan that parses $.b once, as either of them would alone.
	clock, wh, m = laneSystem(t, sqlengine.DefaultBatchSize, Config{ScanShareWindow: 5 * time.Second, ScanShareMaxQueries: 2})
	appendDocs(wh)
	clock.Advance(time.Hour)
	if _, err := m.CacheSelected(ctx, profiles[:1]); err != nil {
		t.Fatal(err)
	}
	sqls := []string{laneSQL([]string{"$.a", "$.b"}), laneSQL([]string{"$.b", "$.a"})}
	var alone reading
	for i, sql := range sqls { // the second arrival marks the scan contended
		_, qm, err := m.QueryCtx(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if qm.ScanModes()&sqlengine.ScanCombined == 0 {
			t.Fatalf("%s planned %s, want a combined scan", sql, qm.PlanModeString())
		}
		if i == 0 {
			alone = of(qm)
		}
	}
	if alone.Docs == 0 {
		t.Fatal("the combined query parsed nothing: $.b is not extracted")
	}
	shared = reading{}
	for i, sql := range sqls {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			_, metrics[i], errs[i] = m.QueryCtx(ctx, sql)
		}(i, sql)
	}
	wg.Wait()
	for i, qm := range metrics {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		r := of(qm)
		shared.Docs, shared.Bytes, shared.Skipped = shared.Docs+r.Docs, shared.Bytes+r.Bytes, shared.Skipped+r.Skipped
	}
	if got := m.Obs().Snapshot().Counter("scanshare_queries_coalesced_total"); got != 2 {
		t.Fatalf("coalesced %d queries, want 2 in one shared combined pass", got)
	}
	if shared != alone {
		t.Errorf("a 2-way shared combined pass metered %+v in all, one unshared query %+v", shared, alone)
	}
}

// TestFilteredShapeMetersCallsAloneAndShared pins what Parse.Calls counts: one
// call per call site per row the executor evaluates that site on, wherever
// the value was extracted. A raw query that filters before it projects calls
// the filter's path on every row and the projected path on the rows that
// pass; a 2-way shared pass extracts both once for the pair, yet each of its
// queries makes exactly the calls it makes alone, and the pair parses what
// one query alone parses.
func TestFilteredShapeMetersCallsAloneAndShared(t *testing.T) {
	ctx := context.Background()
	// meterDocs' $.a: 1, 2, 2, unreadable and 4, so the filter passes three
	// rows; the repeated document is scanned once.
	const sql = `SELECT get_json_object(doc, '$.b') b FROM db.t WHERE get_json_object(doc, '$.a') > 1`
	const wantCalls, wantDocs = 5 + 3, 4
	rows := make([][]datum.Datum, len(meterDocs))
	for i, d := range meterDocs {
		rows[i] = []datum.Datum{datum.Int(int64(i)), datum.Str(d)}
	}
	load := func(cfg Config) *Maxson {
		t.Helper()
		_, wh, m := laneSystem(t, sqlengine.DefaultBatchSize, cfg)
		if _, err := wh.AppendRows("db", "t", rows); err != nil {
			t.Fatal(err)
		}
		return m
	}

	rs, alone, err := load(Config{}).QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("%d rows pass the filter, want 3", len(rs.Rows))
	}
	if pc := alone.Parse.Snapshot(); pc.Calls != wantCalls || pc.Docs != wantDocs {
		t.Fatalf("alone: %d calls over %d documents, want %d over %d", pc.Calls, pc.Docs, wantCalls, wantDocs)
	}

	m := load(Config{ScanShareWindow: 5 * time.Second, ScanShareMaxQueries: 2})
	for i := 0; i < 2; i++ { // two in a row mark the fingerprint contended
		if _, _, err := m.QueryCtx(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	metrics := make([]*sqlengine.Metrics, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range metrics {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, metrics[i], errs[i] = m.QueryCtx(ctx, sql)
		}(i)
	}
	wg.Wait()
	if got := m.Obs().Snapshot().Counter("scanshare_queries_coalesced_total"); got != 2 {
		t.Fatalf("coalesced %d queries, want 2 in one shared pass", got)
	}
	docs := int64(0)
	for i, qm := range metrics {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		pc := qm.Parse.Snapshot()
		if pc.Calls != wantCalls {
			t.Errorf("shared query %d made %d calls, alone %d", i, pc.Calls, wantCalls)
		}
		docs += pc.Docs
	}
	if docs != wantDocs {
		t.Errorf("the shared pair parsed %d documents, one query alone %d", docs, wantDocs)
	}
}
