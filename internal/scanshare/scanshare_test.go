package scanshare_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/scanshare"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
	"repro/internal/warehouse"
)

// shareEnv holds two engines over one warehouse: `shared` has the scheduler
// installed, `plain` is the unshared baseline every result must match
// byte-for-byte.
type shareEnv struct {
	wh     *warehouse.Warehouse
	shared *sqlengine.Engine
	plain  *sqlengine.Engine
	reg    *obs.Registry
	sched  *scanshare.Scheduler
}

func newShareEnv(t *testing.T, seed int64, rowsPerFile, files int, opts scanshare.Options) *shareEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bed := testbed.New(testbed.Config{RowGroupRows: 8})
	table := testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc}
	id := 0
	for f := 0; f < files; f++ {
		var rows [][]datum.Datum
		for i := 0; i < rowsPerFile; i++ {
			doc := fmt.Sprintf(`{"a":%d,"b":"g%d","nested":{"x":%d,"y":"v%d"},"items":[{"q":%d},{"q":%d},{"r":%d}],"tail":%q}`,
				rng.Intn(100), rng.Intn(3), rng.Intn(80), rng.Intn(5),
				rng.Intn(9), rng.Intn(9), rng.Intn(9),
				strings.Repeat("pad", 10))
			rows = append(rows, []datum.Datum{datum.Int(int64(id)), datum.Str(doc)})
			id++
		}
		table.Parts = append(table.Parts, rows)
	}
	if err := bed.Load(0, table); err != nil {
		t.Fatal(err)
	}
	wh := bed.WH
	wh.SetRetrySleep(func(time.Duration) {})
	reg := obs.NewRegistry()
	opts.Obs = reg
	shared := sqlengine.NewEngine(wh,
		sqlengine.WithDefaultDB("db"),
		sqlengine.WithParallelism(2),
		sqlengine.WithBatchSize(16))
	sched := scanshare.New(opts)
	shared.SetScanShare(sched)
	plain := sqlengine.NewEngine(wh,
		sqlengine.WithDefaultDB("db"),
		sqlengine.WithParallelism(2),
		sqlengine.WithBatchSize(16))
	return &shareEnv{wh: wh, shared: shared, plain: plain, reg: reg, sched: sched}
}

// contend makes sql's scan fingerprint contended on env's fresh scheduler:
// the second of two sequential queries arrives less than a window after the
// first, which marks the fingerprint without waiting, so the first query of
// the burst that follows opens a group and the rest join it.
func (env *shareEnv) contend(t *testing.T, sql string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, _, err := env.shared.QueryCtx(context.Background(), sql); err != nil {
			t.Fatalf("contend %q: %v", sql, err)
		}
	}
}

// runConcurrent fires one goroutine per query, all released together, and
// returns rendered results, metrics, and errors indexed like queries.
func runConcurrent(ctx context.Context, e *sqlengine.Engine, queries []string, ctxs []context.Context) ([]string, []*sqlengine.Metrics, []error) {
	res := make([]string, len(queries))
	mets := make([]*sqlengine.Metrics, len(queries))
	errs := make([]error, len(queries))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, sql := range queries {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			<-start
			qctx := ctx
			if ctxs != nil && ctxs[i] != nil {
				qctx = ctxs[i]
			}
			rs, m, err := e.QueryCtx(qctx, sql)
			if err != nil {
				errs[i] = err
				return
			}
			res[i] = rs.String()
			mets[i] = m
		}(i, sql)
	}
	close(start)
	wg.Wait()
	return res, mets, errs
}

func checkBaseline(t *testing.T, before int64) {
	t.Helper()
	if got := sqlengine.OutstandingBatches(); got != before {
		t.Fatalf("pooled RowBatch leak: outstanding %d before, %d after", before, got)
	}
}

// TestMergedConcurrentEquivalence coalesces three queries with different
// path footprints over the same scan into one merged pass and checks every
// result against the unshared engine.
func TestMergedConcurrentEquivalence(t *testing.T) {
	env := newShareEnv(t, 7, 40, 3, scanshare.Options{
		Window: 250 * time.Millisecond, MaxQueries: 16,
	})
	queries := []string{
		`SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`,
		`SELECT id, get_json_object(doc, '$.nested.x') x FROM db.t ORDER BY id`,
		`SELECT id, get_json_object(doc, '$.a') a, get_json_object(doc, '$.nested.x') x
		 FROM db.t WHERE get_json_object(doc, '$.b') = 'g1' ORDER BY id`,
	}
	want := make([]string, len(queries))
	for i, sql := range queries {
		rs, _, err := env.plain.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("plain %q: %v", sql, err)
		}
		want[i] = rs.String()
	}
	env.contend(t, queries[0])
	before := sqlengine.OutstandingBatches()

	got, mets, errs := runConcurrent(context.Background(), env.shared, queries, nil)
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("shared %q: %v", queries[i], errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("results diverged for %q:\nwant:\n%s\ngot:\n%s", queries[i], want[i], got[i])
		}
		if mets[i].ScanModes()&sqlengine.ScanShared == 0 {
			t.Fatalf("query %q missing ScanShared mode (PlanModeString=%q)",
				queries[i], mets[i].PlanModeString())
		}
		if mets[i].PlanModeString() != "shared" {
			t.Fatalf("query %q PlanModeString = %q, want \"shared\"", queries[i], mets[i].PlanModeString())
		}
	}
	if n := env.reg.Counter("scanshare_queries_coalesced_total").Value(); n != 3 {
		t.Fatalf("scanshare_queries_coalesced_total = %d, want 3", n)
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 1 {
		t.Fatalf("scanshare_groups_total = %d, want 1", n)
	}
	checkBaseline(t, before)
}

// TestIdenticalQueriesShareParse runs four copies of one query concurrently:
// the group parses each document once, so the summed parse bytes across all
// four must stay within 1.5x a single unshared run.
func TestIdenticalQueriesShareParse(t *testing.T) {
	env := newShareEnv(t, 11, 60, 3, scanshare.Options{
		Window: 250 * time.Millisecond, MaxQueries: 16,
	})
	const sql = `SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`
	rs, pm, err := env.plain.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.String()
	single := pm.Parse.Bytes.Load()
	if single == 0 {
		t.Fatal("plain query parsed zero bytes; test data not exercising the parser")
	}
	env.contend(t, sql)
	before := sqlengine.OutstandingBatches()

	queries := []string{sql, sql, sql, sql}
	got, mets, errs := runConcurrent(context.Background(), env.shared, queries, nil)
	var total int64
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("shared copy %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Fatalf("shared copy %d diverged:\nwant:\n%s\ngot:\n%s", i, want, got[i])
		}
		total += mets[i].Parse.Bytes.Load()
	}
	if total > single*3/2 {
		t.Fatalf("4 shared queries parsed %d bytes, single query parses %d — sharing is not deduplicating (limit 1.5x)", total, single)
	}
	if saved := env.reg.Counter("scanshare_parse_bytes_saved_total").Value(); saved == 0 {
		t.Fatal("scanshare_parse_bytes_saved_total = 0 after a 4-way shared pass")
	}
	checkBaseline(t, before)
}

// TestSoloPassthrough: a lone query runs completely unshared — untouched
// plan, no shared mode bit, solo counter bumped.
func TestSoloPassthrough(t *testing.T) {
	env := newShareEnv(t, 13, 20, 2, scanshare.Options{
		Window: 2 * time.Millisecond, MaxQueries: 16,
	})
	const sql = `SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`
	rs, _, err := env.plain.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.String()
	before := sqlengine.OutstandingBatches()

	rs2, m, err := env.shared.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.String() != want {
		t.Fatalf("solo result diverged:\nwant:\n%s\ngot:\n%s", want, rs2.String())
	}
	if m.ScanModes()&sqlengine.ScanShared != 0 {
		t.Fatalf("solo query marked shared (PlanModeString=%q)", m.PlanModeString())
	}
	if n := env.reg.Counter("scanshare_solo_queries_total").Value(); n != 1 {
		t.Fatalf("scanshare_solo_queries_total = %d, want 1", n)
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 0 {
		t.Fatalf("scanshare_groups_total = %d, want 0", n)
	}
	checkBaseline(t, before)
}

// TestCancelBeforeSeal: a query cancelled while the admission window is
// still open detaches cleanly; its sibling proceeds (now alone, so
// unshared) and returns correct rows.
func TestCancelBeforeSeal(t *testing.T) {
	env := newShareEnv(t, 17, 20, 2, scanshare.Options{
		Window: 400 * time.Millisecond, MaxQueries: 16,
	})
	const sql = `SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`
	rs, _, err := env.plain.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.String()
	env.contend(t, sql)
	before := sqlengine.OutstandingBatches()

	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	queries := []string{sql, sql}
	ctxs := []context.Context{cctx, nil}
	got, _, errs := runConcurrent(context.Background(), env.shared, queries, ctxs)

	if errs[0] == nil {
		t.Fatal("cancelled query returned no error")
	}
	if !strings.Contains(errs[0].Error(), "context canceled") {
		t.Fatalf("cancelled query error = %v, want context cancellation", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("sibling of cancelled query failed: %v", errs[1])
	}
	if got[1] != want {
		t.Fatalf("sibling result diverged:\nwant:\n%s\ngot:\n%s", want, got[1])
	}
	if n := env.reg.Counter("scanshare_detach_total").Value(); n == 0 {
		t.Fatal("scanshare_detach_total = 0 after a pre-seal cancellation")
	}
	checkBaseline(t, before)
}

// TestCancelDuringSharedScan cancels one participant while the shared
// producer is (or may still be) streaming. Whatever the race resolves to,
// the sibling's rows are exact and the batch pool balances.
func TestCancelDuringSharedScan(t *testing.T) {
	env := newShareEnv(t, 19, 400, 4, scanshare.Options{
		Window: 150 * time.Millisecond, MaxQueries: 16,
	})
	const sql = `SELECT id, get_json_object(doc, '$.a') a, get_json_object(doc, '$.nested.y') y
	 FROM db.t ORDER BY id`
	rs, _, err := env.plain.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.String()
	env.contend(t, sql)
	before := sqlengine.OutstandingBatches()

	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(160 * time.Millisecond) // lands just after the seal
		cancel()
	}()
	queries := []string{sql, sql, sql}
	ctxs := []context.Context{cctx, nil, nil}
	got, _, errs := runConcurrent(context.Background(), env.shared, queries, ctxs)

	// The cancelled query either finished before the cancel landed or
	// returns a context error — both fine; wrong rows are not.
	if errs[0] == nil && got[0] != want {
		t.Fatalf("cancelled query returned wrong rows:\nwant:\n%s\ngot:\n%s", want, got[0])
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("sibling %d failed: %v", i, errs[i])
		}
		if got[i] != want {
			t.Fatalf("sibling %d diverged:\nwant:\n%s\ngot:\n%s", i, want, got[i])
		}
	}
	checkBaseline(t, before)
}

// TestSubsumedPathsShareColumns: $.nested and $.nested.x from different
// queries union without double-extraction, and each query still evaluates
// its own path correctly against the merged columns.
func TestSubsumedPathsShareColumns(t *testing.T) {
	env := newShareEnv(t, 23, 30, 2, scanshare.Options{
		Window: 250 * time.Millisecond, MaxQueries: 16,
	})
	queries := []string{
		`SELECT id, get_json_object(doc, '$.nested.x') x FROM db.t ORDER BY id`,
		`SELECT id, get_json_object(doc, '$.nested.x') x, get_json_object(doc, '$.nested.y') y
		 FROM db.t ORDER BY id`,
	}
	want := make([]string, len(queries))
	for i, sql := range queries {
		rs, _, err := env.plain.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs.String()
	}
	env.contend(t, queries[0])
	before := sqlengine.OutstandingBatches()

	got, _, errs := runConcurrent(context.Background(), env.shared, queries, nil)
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("shared %q: %v", queries[i], errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("results diverged for %q:\nwant:\n%s\ngot:\n%s", queries[i], want[i], got[i])
		}
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 1 {
		t.Fatalf("scanshare_groups_total = %d, want 1", n)
	}
	checkBaseline(t, before)
}

// TestMergedWildcardQueriesShare: wildcard paths now compile into the merged
// trie (array-iteration nodes), so queries over $.items[*] shapes coalesce
// into one shared streaming pass instead of silently degrading to solo
// passthrough — including the subsumption pair $.items[*] / $.items[*].q.
func TestMergedWildcardQueriesShare(t *testing.T) {
	env := newShareEnv(t, 31, 30, 2, scanshare.Options{
		Window: 250 * time.Millisecond, MaxQueries: 16,
	})
	queries := []string{
		`SELECT id, get_json_object(doc, '$.items[*].q') q FROM db.t ORDER BY id`,
		`SELECT id, get_json_object(doc, '$.items[*]') all_items, get_json_object(doc, '$.items[*].q') q
		 FROM db.t ORDER BY id`,
		`SELECT id, get_json_object(doc, '$.items[0].q') q0, get_json_object(doc, '$.a') a
		 FROM db.t ORDER BY id`,
	}
	want := make([]string, len(queries))
	for i, sql := range queries {
		rs, _, err := env.plain.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs.String()
	}
	env.contend(t, queries[0])
	before := sqlengine.OutstandingBatches()

	got, mets, errs := runConcurrent(context.Background(), env.shared, queries, nil)
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("shared %q: %v", queries[i], errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("results diverged for %q:\nwant:\n%s\ngot:\n%s", queries[i], want[i], got[i])
		}
		if mets[i].ScanModes()&sqlengine.ScanShared == 0 {
			t.Fatalf("wildcard query %q missing ScanShared mode (PlanModeString=%q)",
				queries[i], mets[i].PlanModeString())
		}
	}
	if n := env.reg.Counter("scanshare_queries_coalesced_total").Value(); n != 3 {
		t.Fatalf("scanshare_queries_coalesced_total = %d, want 3", n)
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 1 {
		t.Fatalf("scanshare_groups_total = %d, want 1", n)
	}
	checkBaseline(t, before)
}

// TestDifferentTablesNeverShare: concurrent queries over different column
// sets (different fingerprints) must not coalesce.
func TestDifferentColumnSetsNeverShare(t *testing.T) {
	env := newShareEnv(t, 29, 20, 2, scanshare.Options{
		Window: 150 * time.Millisecond, MaxQueries: 16,
	})
	queries := []string{
		`SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`,
		`SELECT get_json_object(doc, '$.b') b, COUNT(*) n FROM db.t
		 GROUP BY get_json_object(doc, '$.b') ORDER BY b`,
	}
	want := make([]string, len(queries))
	for i, sql := range queries {
		rs, _, err := env.plain.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs.String()
	}
	before := sqlengine.OutstandingBatches()
	got, _, errs := runConcurrent(context.Background(), env.shared, queries, nil)
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("shared %q: %v", queries[i], errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("results diverged for %q:\nwant:\n%s\ngot:\n%s", queries[i], want[i], got[i])
		}
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 0 {
		t.Fatalf("scanshare_groups_total = %d, want 0 (incompatible scans coalesced)", n)
	}
	checkBaseline(t, before)
}
