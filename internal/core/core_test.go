package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// fixture builds a warehouse with the sale-logs table (3 part files,
// 31 days) and an engine.
type fixture struct {
	clock  *simtime.Sim
	wh     *warehouse.Warehouse
	engine *sqlengine.Engine
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 8}))
	wh.CreateDatabase("mydb")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "mall_id", Type: datum.TypeString},
		{Name: "date", Type: datum.TypeString},
		{Name: "sale_logs", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("mydb", "t", schema); err != nil {
		t.Fatal(err)
	}
	day := 1
	for _, n := range []int{10, 10, 11} {
		var rows [][]datum.Datum
		for i := 0; i < n; i++ {
			date := fmt.Sprintf("201901%02d", day)
			log := fmt.Sprintf(
				`{"item_id":%d,"item_name":"item-%02d","sale_count":%d,"turnover":%d,"price":%d}`,
				day, day, day%7+1, day*10, day%5+1)
			rows = append(rows, []datum.Datum{datum.Str("0001"), datum.Str(date), datum.Str(log)})
			day++
		}
		if _, err := wh.AppendRows("mydb", "t", rows); err != nil {
			t.Fatal(err)
		}
		clock.Advance(24 * time.Hour)
	}
	engine := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("mydb"), sqlengine.WithParallelism(2))
	return &fixture{clock: clock, wh: wh, engine: engine}
}

// profileFor builds a minimal PathProfile selecting the given path.
func profileFor(path string) *PathProfile {
	return &PathProfile{
		Key: pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: path},
		// measured fields are only needed for selection, not caching
		TotalValueBytes: 1,
	}
}

// cachePaths populates the cache with the given JSONPaths directly.
func cachePaths(t *testing.T, m *Maxson, paths ...string) {
	t.Helper()
	profiles := make([]*PathProfile, len(paths))
	for i, p := range paths {
		profiles[i] = profileFor(p)
	}
	if _, err := m.CacheSelected(context.Background(), profiles); err != nil {
		t.Fatal(err)
	}
}

func TestCacherAlignmentInvariant(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	// A table none of whose paths compiles writes nothing and counts as
	// nothing.
	stats, err := m.CacheSelected(context.Background(), []*PathProfile{profileFor("$.[")})
	if err != nil || stats.TablesWritten != 0 || len(f.wh.ListTables(CacheDB)) != 0 {
		t.Fatalf("uncompilable selection: %+v, %v; cache tables %v", stats, err, f.wh.ListTables(CacheDB))
	}
	cachePaths(t, m, "$.item_id", "$.turnover")
	if err := m.Cacher.VerifyAlignment("mydb", "t"); err != nil {
		t.Fatal(err)
	}
	info, err := f.wh.Table(CacheDB, m.Cacher.ActiveCacheTable("mydb", "t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Files) != 3 || info.NumRows != 31 {
		t.Errorf("cache table = %d files, %d rows", len(info.Files), info.NumRows)
	}
	if len(info.Schema.Columns) != 2 {
		t.Errorf("cache schema = %+v", info.Schema)
	}
}

func TestCachedValuesCorrect(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	rows, err := f.wh.ReadAll(CacheDB, m.Cacher.ActiveCacheTable("mydb", "t"), []string{"sale_logs__turnover"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 31 {
		t.Fatalf("cache rows = %d", len(rows))
	}
	for i, row := range rows {
		want := fmt.Sprint((i + 1) * 10)
		if row[0].S != want {
			t.Fatalf("cached turnover[%d] = %q, want %q", i, row[0].S, want)
		}
	}
}

const fig1Query = `
	SELECT mall_id,
	       get_json_object(sale_logs, '$.item_id') AS item_id,
	       get_json_object(sale_logs, '$.item_name') AS item_name,
	       get_json_object(sale_logs, '$.turnover') AS turnover
	FROM mydb.t
	WHERE date BETWEEN '20190101' AND '20190103'
	ORDER BY get_json_object(sale_logs, '$.turnover') DESC
	LIMIT 1`

func TestMaxsonResultsMatchPlainEngine(t *testing.T) {
	plain := newFixture(t)
	cached := newFixture(t)
	m := New(cached.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.item_id", "$.item_name", "$.turnover")

	queries := []string{
		fig1Query,
		`SELECT get_json_object(sale_logs, '$.sale_count') sc, COUNT(*) c
		 FROM mydb.t GROUP BY get_json_object(sale_logs, '$.sale_count') ORDER BY sc`,
		`SELECT date FROM mydb.t WHERE get_json_object(sale_logs, '$.turnover') > 290 ORDER BY date`,
		`SELECT get_json_object(sale_logs, '$.item_name') n FROM mydb.t ORDER BY n LIMIT 5`,
		`SELECT COUNT(*) c FROM mydb.t`,
	}
	for _, sql := range queries {
		rp, _, err := plain.engine.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("plain %q: %v", sql, err)
		}
		rm, _, err := m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("maxson %q: %v", sql, err)
		}
		if rp.String() != rm.String() {
			t.Errorf("results differ for %q:\nplain:\n%s\nmaxson:\n%s", sql, rp.String(), rm.String())
		}
	}
}

func TestCacheHitEliminatesParsing(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.item_id", "$.item_name", "$.turnover")

	_, metrics, err := m.QueryCtx(context.Background(), fig1Query)
	if err != nil {
		t.Fatal(err)
	}
	if docs := metrics.Parse.Docs.Load(); docs != 0 {
		t.Errorf("cached query parsed %d documents, want 0", docs)
	}
	if metrics.CacheValuesRead.Load() == 0 {
		t.Error("no cache values read")
	}
}

func TestFullyCachedQueryDropsJSONColumn(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")

	// All JSON paths cached; sale_logs itself is not otherwise referenced,
	// so the primary reader must not read it (Fig 9).
	plainBytes := func(e *sqlengine.Engine) int64 {
		_, met, err := e.QueryCtx(context.Background(), `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
		if err != nil {
			t.Fatal(err)
		}
		return met.BytesRead.Load()
	}
	withCache := plainBytes(f.engine)

	plain := newFixture(t)
	without := plainBytes(plain.engine)
	if withCache >= without {
		t.Errorf("cached read %d bytes, plain %d — JSON column not dropped", withCache, without)
	}
}

// A fully cached query costs one dfs open per split — the cache file — and
// the bytes of the cache table, however often planning and the per-split
// opens consult the metastore; no raw part file is read at all.
func TestFullyCachedQueryReadsOnlyCacheFiles(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	cacheTable := m.Cacher.ActiveCacheTable("mydb", "t")
	cacheBytes, err := f.wh.TotalBytes(CacheDB, cacheTable)
	if err != nil {
		t.Fatal(err)
	}
	rawInfo, err := f.wh.Table("mydb", "t")
	if err != nil {
		t.Fatal(err)
	}
	splits := int64(len(rawInfo.Files))

	fs := f.wh.FS()
	fs.ResetStats()
	_, met, err := m.QueryCtx(context.Background(), `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if met.Parse.Docs.Load() != 0 || met.RowsScanned.Load() != 31 {
		t.Fatalf("not a fully cached scan: parsed %d docs, scanned %d rows", met.Parse.Docs.Load(), met.RowsScanned.Load())
	}
	st := fs.Stats()
	if st.Opens != splits || st.BytesRead != cacheBytes {
		t.Errorf("query over %d splits: %d dfs opens, %d bytes; want %d opens and the cache table's %d bytes (raw table is %d)",
			splits, st.Opens, st.BytesRead, splits, cacheBytes, rawInfo.Bytes)
	}
}

func TestPartiallyCachedQueryStitchesRows(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")

	// item_name is NOT cached: the query needs raw sale_logs for it and
	// the cache for turnover, exercising the Value Combiner stitch.
	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.item_name') n,
		       get_json_object(sale_logs, '$.turnover') tv,
		       date
		FROM mydb.t WHERE date = '20190107'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "item-07" || rs.Rows[0][1].S != "70" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if metrics.Parse.Docs.Load() == 0 {
		t.Error("uncached path should still parse")
	}
	if metrics.CacheValuesRead.Load() == 0 {
		t.Error("cached path should come from cache")
	}
}

// TestAppendAfterCachingServedByFallback: a daily append whose ingest failed
// lands a new part file the cache does not cover. The failure is counted, the
// cache stays valid for the old files, and the new split parses on the fly.
func TestAppendAfterCachingServedByFallback(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")

	f.clock.Advance(time.Hour)
	newRows := [][]datum.Datum{{
		datum.Str("0001"), datum.Str("20190201"),
		datum.Str(`{"item_id":99,"item_name":"item-99","sale_count":9,"turnover":990,"price":9}`),
	}}
	appendUncovered(t, f.wh, "mydb", "t", newRows)
	if n := m.Obs().Counter("cacher_ingest_failures_total").Value(); n != 1 {
		t.Errorf("cacher_ingest_failures_total = %d, want the one faulted ingest", n)
	}

	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 32 || rs.Rows[31][0].S != "990" {
		t.Fatalf("rows = %d, last = %v", len(rs.Rows), rs.Rows[len(rs.Rows)-1])
	}
	// Old rows come from the cache; only the appended file parses.
	if metrics.CacheValuesRead.Load() == 0 {
		t.Error("covered splits should still serve from the cache")
	}
	if docs := metrics.Parse.Docs.Load(); docs != 1 {
		t.Errorf("fallback parsed %d docs, want exactly the 1 appended row", docs)
	}
	entry := m.Registry.Lookup(pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"})
	info, err := f.wh.Table("mydb", "t")
	if err != nil {
		t.Fatal(err)
	}
	if entry == nil || entry.Manifest.Covered(info) != 3 {
		t.Error("an append must leave the three cached splits served from the cache")
	}
}

// TestRewriteInvalidatesCache: a rewrite of previously appended data (the
// paper's 2%-of-tables case) gives that part a new version, so its split
// parses the raw JSON while the splits still at their cached versions keep
// reading the cache.
func TestRewriteInvalidatesCache(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")

	info, err := f.wh.Table("mydb", "t")
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(time.Hour)
	rewritten := [][]datum.Datum{{
		datum.Str("0001"), datum.Str("20190101"),
		datum.Str(`{"item_id":1,"item_name":"item-01","sale_count":2,"turnover":11111,"price":1}`),
	}}
	if err := f.wh.RewriteFile("mydb", "t", info.Files[0], rewritten); err != nil {
		t.Fatal(err)
	}

	const sql = `SELECT date, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`
	want, _, err := sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb")).QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	rs, metrics, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs.String() != want.String() || rs.Rows[0][1].S != "11111" {
		t.Fatalf("rows after the rewrite:\n%s\nwant\n%s", rs.String(), want.String())
	}
	// Split 0 holds the one rewritten document; splits 1 and 2, 21 rows.
	if docs, values := metrics.Parse.Docs.Load(), metrics.CacheValuesRead.Load(); docs != 1 || values != 21 {
		t.Errorf("parsed %d documents and read %d cache values, want the rewritten split's 1 and the others' 21", docs, values)
	}
	if m.Registry.Lookup(pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"}) == nil {
		t.Error("a rewrite dropped the entry")
	}
}

func TestRePopulationDropsInvalidTables(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	// Re-populate (next midnight): the old generation is retired from the
	// registry immediately but its table is deleted one cycle later, so
	// in-flight queries can finish (the paper's deferred deletion).
	oldTable := m.Cacher.ActiveCacheTable("mydb", "t")
	stats, err := m.CacheSelected(context.Background(), []*PathProfile{profileFor("$.item_id")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 {
		t.Errorf("first re-population dropped %d tables, want deferred deletion", stats.Dropped)
	}
	if !f.wh.TableExists(CacheDB, oldTable) {
		t.Error("old generation deleted immediately; want grace period")
	}
	// One more cycle actually deletes the retired generation.
	stats, err = m.CacheSelected(context.Background(), []*PathProfile{profileFor("$.item_id")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Error("second cycle did not delete the retired generation")
	}
	if f.wh.TableExists(CacheDB, oldTable) {
		t.Error("retired generation still exists after grace period")
	}
	if m.Registry.Lookup(pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"}) != nil {
		t.Error("old entry survived re-population")
	}
	if m.Registry.Lookup(pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.item_id"}) == nil {
		t.Error("new entry missing")
	}
}

func TestPredicatePushdownSharesSkipArray(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover", "$.item_name")

	// Fig 8 shape: predicate on a cached path. Only one row matches
	// (turnover = 310); the matching group is the last of each file.
	sql := `
		SELECT get_json_object(sale_logs, '$.item_name') n,
		       get_json_object(sale_logs, '$.turnover') tv
		FROM mydb.t
		WHERE get_json_object(sale_logs, '$.turnover') > 300`
	rs, metrics, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][1].S != "310" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if metrics.RowGroupsSkipped.Load() == 0 {
		t.Error("pushdown did not skip any row groups")
	}

	// Same query with pushdown disabled must read more groups.
	m.Planner.Pushdown = false
	_, metricsNoPush, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if metricsNoPush.RowGroupsSkipped.Load() >= metrics.RowGroupsSkipped.Load() {
		t.Errorf("pushdown off skipped %d groups, on skipped %d",
			metricsNoPush.RowGroupsSkipped.Load(), metrics.RowGroupsSkipped.Load())
	}
}

func TestPushdownReducesInputBytes(t *testing.T) {
	// Fig 12's "Maxson input size much smaller" effect.
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	sql := `
		SELECT date, get_json_object(sale_logs, '$.turnover') tv
		FROM mydb.t
		WHERE get_json_object(sale_logs, '$.turnover') > 300`
	_, withPush, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	plain := newFixture(t)
	_, noCache, err := plain.engine.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if withPush.BytesRead.Load() >= noCache.BytesRead.Load() {
		t.Errorf("maxson read %d bytes, plain %d", withPush.BytesRead.Load(), noCache.BytesRead.Load())
	}
}

func TestCollectorObservesQueries(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	if _, _, err := m.QueryCtx(context.Background(), fig1Query); err != nil {
		t.Fatal(err)
	}
	// fig1Query names item_id and item_name once and turnover twice
	// (projection + ORDER BY); each occurrence is an access.
	key := func(path string) pathkey.Key {
		return pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: path}
	}
	want := map[pathkey.Key][]int{
		key("$.item_id"):   {0, 1},
		key("$.item_name"): {0, 1},
		key("$.turnover"):  {0, 2},
	}
	if got := m.Collector.CountsFor(f.clock.Now().Add(-24*time.Hour), 2); !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
}

func TestScoringFunctionOrdering(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})

	// Two paths: turnover queried by many queries, price by one.
	for i := 0; i < 5; i++ {
		m.Collector.Observe([]pathkey.Key{
			{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"},
		}, f.clock.Now())
	}
	m.Collector.Observe([]pathkey.Key{
		{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.price"},
	}, f.clock.Now())

	candidates := []pathkey.Key{
		{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"},
		{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.price"},
	}
	mpjp := map[pathkey.Key]bool{candidates[0]: true, candidates[1]: true}
	profiles := m.Scorer.Profile(candidates, m.Collector.PathSets(f.clock.Now(), 1), mpjp)
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	if profiles[0].Key.Path != "$.turnover" {
		t.Errorf("highest-scored = %s, want $.turnover (occurrence 5 vs 1)", profiles[0].Key.Path)
	}
	if profiles[0].Occurrence != 5 || profiles[1].Occurrence != 1 {
		t.Errorf("occurrences = %d, %d", profiles[0].Occurrence, profiles[1].Occurrence)
	}
	for _, p := range profiles {
		if p.Relevance != 1 { // all paths in these queries are MPJPs
			t.Errorf("relevance = %v, want 1", p.Relevance)
		}
		if p.AvgValueBytes <= 0 || p.AvgParseNs <= 0 || p.TotalValueBytes <= 0 {
			t.Errorf("unmeasured profile: %+v", p)
		}
		if p.Score <= 0 {
			t.Errorf("score = %v", p.Score)
		}
	}
}

func TestSelectUnderBudget(t *testing.T) {
	mk := func(path string, score float64, bytes int64) *PathProfile {
		return &PathProfile{
			Key:             pathkey.Key{DB: "d", Table: "t", Column: "c", Path: path},
			Score:           score,
			TotalValueBytes: bytes,
		}
	}
	profiles := []*PathProfile{
		mk("$.a", 10, 100),
		mk("$.b", 8, 100),
		mk("$.c", 5, 100),
	}
	sel := SelectUnderBudget(profiles, 250)
	if len(sel) != 2 || sel[0].Key.Path != "$.a" || sel[1].Key.Path != "$.b" {
		t.Errorf("selected = %v", sel)
	}
	// Budget too small for the top entry: it is skipped, smaller ones fit.
	profiles2 := []*PathProfile{mk("$.big", 10, 1000), mk("$.small", 1, 50)}
	sel2 := SelectUnderBudget(profiles2, 100)
	if len(sel2) != 1 || sel2[0].Key.Path != "$.small" {
		t.Errorf("selected = %v", sel2)
	}
	// Covered paths are skipped: $.a covers $.a.b.
	profiles3 := []*PathProfile{mk("$.a", 10, 50), mk("$.a.b", 9, 50)}
	sel3 := SelectUnderBudget(profiles3, 1000)
	if len(sel3) != 1 {
		t.Errorf("coverage dedup failed: %v", sel3)
	}
}

func TestRandomSelectionDeterministicPerSeed(t *testing.T) {
	var profiles []*PathProfile
	for i := 0; i < 20; i++ {
		profiles = append(profiles, &PathProfile{
			Key:             pathkey.Key{DB: "d", Table: "t", Column: "c", Path: fmt.Sprintf("$.p%d", i)},
			TotalValueBytes: 10,
		})
	}
	a := RandomSelectUnderBudget(profiles, 100, 7)
	b := RandomSelectUnderBudget(profiles, 100, 7)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("selection sizes = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("same seed produced different selections")
		}
	}
	c := RandomSelectUnderBudget(profiles, 100, 8)
	same := true
	for i := range a {
		if a[i].Key != c[i].Key {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical selections")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	k := pathkey.Key{DB: "d", Table: "t", Column: "c", Path: "$.x"}
	if r.Lookup(k) != nil {
		t.Error("empty registry returned an entry")
	}
	r.Swap([]*Manifest{{CacheTable: "d__t__g001", Keys: []pathkey.Key{k}, Splits: []ManifestSplit{{ColBytes: []int64{40}}, {ColBytes: []int64{2}}}}})
	e := r.Lookup(k)
	if e == nil || e.Bytes != 42 || e.CacheTable != "d__t__g001" || e.CacheColumn != k.Sanitized() {
		t.Fatalf("entry = %+v", e)
	}
	if r.Lookup(k) != e {
		t.Error("Lookup copied an immutable entry")
	}
	if r.TotalBytes() != 42 {
		t.Errorf("TotalBytes = %d, want 42", r.TotalBytes())
	}
}

func TestAggregateQueryOverCache(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.sale_count")
	rs, metrics, err := m.QueryCtx(context.Background(), `
		SELECT get_json_object(sale_logs, '$.sale_count') sc, COUNT(*) c
		FROM mydb.t
		GROUP BY get_json_object(sale_logs, '$.sale_count')
		ORDER BY sc`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 7 {
		t.Fatalf("groups = %d", len(rs.Rows))
	}
	if metrics.Parse.Docs.Load() != 0 {
		t.Errorf("aggregate over cache parsed %d docs", metrics.Parse.Docs.Load())
	}
	total := int64(0)
	for _, row := range rs.Rows {
		total += row[1].I
	}
	if total != 31 {
		t.Errorf("count total = %d", total)
	}
}

func TestJoinQueryWithCache(t *testing.T) {
	plain := newFixture(t)
	cached := newFixture(t)
	m := New(cached.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.item_id")
	sql := `
		SELECT a.date, get_json_object(a.sale_logs, '$.item_id') id
		FROM mydb.t a JOIN mydb.t b ON a.date = b.date
		WHERE a.date = '20190115'`
	rp, _, err := plain.engine.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	rm, _, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rp.String() != rm.String() {
		t.Errorf("join results differ:\n%s\nvs\n%s", rp.String(), rm.String())
	}
}

func TestMidnightCycleEndToEnd(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{
		BudgetBytes: 1 << 30,
		Window:      3,
		DefaultDB:   "mydb",
		Model:       NewLSTMCRF(LSTMConfig{Hidden: 8, Epochs: 6, LR: 0.02, Seed: 1, Batch: 8}),
	})
	// Simulate 12 days of repeated daily queries on turnover + item_id.
	for day := 0; day < 12; day++ {
		for rep := 0; rep < 3; rep++ {
			m.Collector.Observe([]pathkey.Key{
				{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"},
				{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.item_id"},
			}, f.clock.Now().Add(time.Duration(rep)*time.Hour))
		}
		f.clock.Advance(24 * time.Hour)
	}
	m.AdvanceToMidnight()
	report, err := m.RunMidnightCycleCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.CandidateMPJP == 0 || report.Selected == 0 {
		t.Fatalf("cycle predicted nothing: %+v", report)
	}
	// A daily-repeated path must now be cache-served.
	_, metrics, err := m.QueryCtx(context.Background(), `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Parse.Docs.Load() != 0 {
		t.Errorf("after midnight cycle the daily path still parses (%d docs)", metrics.Parse.Docs.Load())
	}
}

func TestPlanModifierCountsOverhead(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover")
	_, metrics, err := f.engine.PlanOnly(`SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.PlanExprNodes == 0 {
		t.Error("plan nodes not counted")
	}
	// A Maxson-modified plan reports more plan work than an unmodified one.
	plain := newFixture(t)
	_, plainMetrics, err := plain.engine.PlanOnly(`SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.PlanExprNodes <= plainMetrics.PlanExprNodes {
		t.Errorf("maxson plan nodes %d <= plain %d", metrics.PlanExprNodes, plainMetrics.PlanExprNodes)
	}
}

// TestCachedNaNSplitIsNotPruned: a cached path's row-group statistics must
// not prune a split whose values include the JSON string "NaN". The plan
// pushes `get_json_object(...) > 6` into the cache table as a SARG
// (extractCacheSARG); the engine compares "NaN" with 6 as NaN, equal to
// every number, so only the 10 matches — but numeric extremes that started
// at NaN stayed NaN and pruned the group holding it.
func TestCachedNaNSplitIsNotPruned(t *testing.T) {
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	wh := warehouse.New(dfs.New(), warehouse.WithClock(clock))
	wh.CreateDatabase("mydb")
	if err := wh.CreateTable("mydb", "t", orc.Schema{Columns: []orc.Column{{Name: "sale_logs", Type: datum.TypeString}}}); err != nil {
		t.Fatal(err)
	}
	for _, docs := range [][]string{{`{"x":"NaN"}`, `{"x":10}`}, {`{"x":3}`, `{"x":"NaN"}`, `{"x":7}`}} {
		var rows [][]datum.Datum
		for _, d := range docs {
			rows = append(rows, []datum.Datum{datum.Str(d)})
		}
		if _, err := wh.AppendRows("mydb", "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	m := New(sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("mydb")), Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.x")
	for _, sql := range []string{
		`SELECT get_json_object(sale_logs, '$.x') x FROM mydb.t WHERE get_json_object(sale_logs, '$.x') > 6 ORDER BY x`,
		`SELECT get_json_object(sale_logs, '$.x') x FROM mydb.t WHERE get_json_object(sale_logs, '$.x') < 5 ORDER BY x`,
	} {
		want, _, err := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("mydb")).QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		got, metrics, err := m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if metrics.CacheValuesRead.Load() == 0 {
			t.Fatalf("%s: served without the cache", sql)
		}
		if got.String() != want.String() || len(want.Rows) == 0 {
			t.Errorf("%s: cached\n%s\nplain\n%s", sql, got.String(), want.String())
		}
	}
}
