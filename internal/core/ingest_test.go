package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// The ingest suite checks extract at ingest: a part AppendRows lands in a
// table a manifest serves is cached before the append returns, with the split
// a from-scratch populate would write, and any failure leaves the part to the
// fallback lane.

// withFaultedIngest runs fn with every cache-part write failing, so an append
// inside it is not ingested: its part stays uncovered.
func withFaultedIngest(wh *warehouse.Warehouse, fn func()) {
	fs := wh.FS()
	prev := fs.Injector()
	fs.SetInjector(fault.New(1).Add(fault.Rule{Pattern: "/" + CacheDB + "/", Op: fault.OpAppend, Kind: fault.KindError}))
	defer fs.SetInjector(prev)
	fn()
}

// appendUncovered appends rows to db.table with its ingest faulted.
func appendUncovered(t *testing.T, wh *warehouse.Warehouse, db, table string, rows [][]datum.Datum) {
	t.Helper()
	withFaultedIngest(wh, func() {
		if _, err := wh.AppendRows(db, table, rows); err != nil {
			t.Fatal(err)
		}
	})
}

// appendDuringPopulate appends rows to mydb.t while a populate of sel runs on
// m, which must already serve a generation. The append lands while the cycle
// links its first split, after it listed the raw parts, and its ingest is
// held at the read of the new part until the cycle has swapped in its
// generation: the ingest extends a manifest that no longer serves, so its
// compare-and-swap loses and the part stays uncovered.
func appendDuringPopulate(t *testing.T, f *fixture, m *Maxson, sel []*PathProfile, rows [][]datum.Datum) {
	t.Helper()
	const atLink, atIngest = 1, 2 // latencies that tell the two holds apart
	next := generationTableName("mydb", "t", m.Cacher.Generation()+1)
	linking, resume, swapped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	inj := fault.New(1)
	inj.Add(fault.Rule{Pattern: next + "/part-00000", Op: fault.OpAppend, Kind: fault.KindLatency, Latency: atLink, FailN: 1})
	inj.Add(fault.Rule{Pattern: "/mydb/t/part-", Op: fault.OpOpen, Kind: fault.KindLatency, Latency: atIngest, FailN: 1})
	wait := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			panic("appendDuringPopulate: no " + what)
		}
	}
	inj.SetSleep(func(d time.Duration) {
		switch d {
		case atLink:
			close(linking)
			wait(resume, "append")
		case atIngest:
			close(resume)
			wait(swapped, "swap")
		}
	})
	f.wh.FS().SetInjector(inj)
	defer f.wh.FS().SetInjector(nil)
	var cycleErr error
	go func() {
		defer close(swapped)
		_, cycleErr = m.CacheSelected(context.Background(), sel)
	}()
	wait(linking, "link")
	mustAppend(f, rows)
	wait(swapped, "cycle")
	if cycleErr != nil {
		t.Fatal(cycleErr)
	}
	if inj.Injected() != 2 {
		t.Fatalf("the holds fired %d times, want the cycle's and the ingest's", inj.Injected())
	}
}

// requireReferenceRows fails unless sql returns the reference's rows over
// mydb through m, and returns the query's metrics.
func requireReferenceRows(t *testing.T, f *fixture, m *Maxson, sql string) *sqlengine.Metrics {
	t.Helper()
	got, met, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	requireReference(t, f.wh, "mydb", sql, got)
	return met
}

// covered returns how many of mydb.t's parts the serving manifest serves.
func covered(t *testing.T, f *fixture, m *Maxson) int {
	t.Helper()
	info, err := f.wh.Table("mydb", "t")
	if err != nil {
		t.Fatal(err)
	}
	mf := m.Registry.generation()["mydb.t"]
	if mf == nil {
		return 0
	}
	return mf.Covered(info)
}

func splitsOf(m *Maxson, mode string) int64 {
	return m.Obs().Counter("cacher_splits_total", obs.L{K: "mode", V: mode}).Value()
}

// TestIngestedAppendIsReadFromTheCache: after populate, a day appended is
// read from the cache by the very next query — no document parsed, no split
// on the fallback lane — and the rows are the reference's, row at a time and
// batched, alone and in passes shared on a contended fingerprint.
func TestIngestedAppendIsReadFromTheCache(t *testing.T) {
	queries := []string{
		`SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY tv`,
		`SELECT date, get_json_object(sale_logs, '$.item_id') id, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`,
		`SELECT date FROM mydb.t WHERE get_json_object(sale_logs, '$.turnover') > 300 ORDER BY date`,
	}
	for _, size := range []int{1, sqlengine.DefaultBatchSize} {
		for _, share := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch%d/share=%v", size, share), func(t *testing.T) {
				f := newFixture(t)
				cfg := Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"}
				if share {
					cfg.ScanShareWindow = 100 * time.Millisecond
				}
				m := New(sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb"), sqlengine.WithParallelism(2),
					sqlengine.WithBatchSize(size)), cfg)
				mustPopulate(t, m, selection("$.item_id", "$.turnover"))
				mustAppend(f, saleRows(5, 7))
				if n := covered(t, f, m); n != 4 {
					t.Fatalf("the manifest serves %d of 4 parts after the append", n)
				}
				for _, sql := range queries {
					want, err := referenceQuery(f.wh, "mydb", sql)
					if err != nil {
						t.Fatal(err)
					}
					// Unshared, each query runs alone. Shared, two in a row mark
					// the fingerprint contended and three more share a pass.
					runs, concurrent := []int{1}, []bool{false}
					if share {
						runs, concurrent = []int{2, 3}, []bool{false, true}
					}
					for i, n := range runs {
						for _, met := range ingestBurst(t, m, sql, want, n, concurrent[i]) {
							if met.Parse.Docs.Load() != 0 || met.ScanModes()&sqlengine.ScanFallbackUncovered != 0 {
								t.Errorf("%s: parsed %d docs in plan mode %s after the append was ingested", sql, met.Parse.Docs.Load(), met.PlanModeString())
							}
						}
					}
				}
				if share && m.Obs().Counter("scanshare_queries_coalesced_total").Value() == 0 {
					t.Error("no query shared a pass")
				}
			})
		}
	}
}

// ingestBurst runs sql n times, one after another or all at once, checks
// every result against the reference's answer and returns the metrics.
func ingestBurst(t *testing.T, m *Maxson, sql string, want *refResult, n int, concurrent bool) []*sqlengine.Metrics {
	t.Helper()
	mets := make([]*sqlengine.Metrics, n)
	errs := make([]error, n)
	run := func(i int) {
		rs, met, err := m.QueryCtx(context.Background(), sql)
		if err == nil {
			if diff := want.match(rs.Columns, rs.Rows); diff != "" {
				err = errors.New(diff)
			}
		}
		mets[i], errs[i] = met, err
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !concurrent {
			run(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return mets
}

// TestIngestedPartEqualsAFromScratchPart: the cache part ingest writes for an
// appended day, and the entry bytes it adds, are what a cacher with no
// history writes for the same raw part.
func TestIngestedPartEqualsAFromScratchPart(t *testing.T) {
	sel := selection("$.item_id", "$.turnover", "$.item_name")
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	mustPopulate(t, m, sel)
	mustAppend(f, saleRows(5, 7))
	wantParts, wantEntries, _ := freshGeneration(t, func(f *fixture) { mustAppend(f, saleRows(5, 7)) }, sel)
	requireSameGeneration(t, f, m, wantParts, wantEntries)
	if n := splitsOf(m, "ingested"); n != 1 {
		t.Errorf("cacher_splits_total{mode=ingested} = %d, want 1", n)
	}
}

// TestIngestLosingTheSwapLeavesThePartUncovered: an ingest whose manifest a
// cycle displaced while it extracted does not install it; the part it cached
// into the displaced table is never served, the query parses it, and the
// next cycle extracts it.
func TestIngestLosingTheSwapLeavesThePartUncovered(t *testing.T) {
	sel := selection("$.item_id", "$.turnover")
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	mustPopulate(t, m, sel)
	displaced := m.Cacher.ActiveCacheTable("mydb", "t")
	appendDuringPopulate(t, f, m, sel, saleRows(5, 7))

	parts, err := f.wh.Parts(CacheDB, displaced)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 || splitsOf(m, "ingested") != 1 {
		t.Fatalf("the displaced table has %d parts and %d splits were ingested; want the ingest to have written its part", len(parts), splitsOf(m, "ingested"))
	}
	if n := covered(t, f, m); n != 3 {
		t.Errorf("the serving manifest serves %d of 4 parts, want the 3 the cycle saw", n)
	}
	met := requireReferenceRows(t, f, m, `SELECT date, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`)
	if docs := met.Parse.Docs.Load(); docs != 5 {
		t.Errorf("parsed %d documents, want the uncovered part's 5", docs)
	}
	stats, err := m.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsCarried != 3 || stats.SplitsExtracted != 1 {
		t.Errorf("the next cycle: %+v, want 3 carried and the uncovered part extracted", stats)
	}
}

// TestIngestFinishesBeforeItsTableIsDropped: a cycle that drops the table an
// ingest in flight is writing into waits for that ingest. The ingest neither
// fails nor leaves a file behind the dropped table.
func TestIngestFinishesBeforeItsTableIsDropped(t *testing.T) {
	sel := selection("$.turnover")
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	mustPopulate(t, m, sel)
	first := m.Cacher.ActiveCacheTable("mydb", "t")
	held, release := make(chan struct{}), make(chan struct{})
	inj := fault.New(1).Add(fault.Rule{Pattern: "/mydb/t/part-00003", Op: fault.OpOpen, Kind: fault.KindLatency, Latency: 1, FailN: 1})
	inj.SetSleep(func(time.Duration) {
		close(held)
		<-release
	})
	f.wh.FS().SetInjector(inj)
	defer f.wh.FS().SetInjector(nil)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mustAppend(f, saleRows(5, 7))
	}()
	<-held
	// The ingest read the first generation's manifest; one cycle retires
	// that generation and the next drops it.
	mustPopulate(t, m, sel)
	var dropErr error
	go func() {
		defer wg.Done()
		_, dropErr = m.CacheSelected(context.Background(), sel)
	}()
	// A drop that did not wait would run in this time and fail the ingest;
	// one that waits passes whatever the time.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if dropErr != nil {
		t.Fatal(dropErr)
	}
	if n := m.Obs().Counter("cacher_ingest_failures_total").Value(); n != 0 || splitsOf(m, "ingested") != 1 {
		t.Errorf("%d ingest failures, %d splits ingested; want the ingest to finish before its table went", n, splitsOf(m, "ingested"))
	}
	if left := f.wh.FS().List("/warehouse/" + CacheDB + "/" + first); len(left) != 0 || f.wh.TableExists(CacheDB, first) {
		t.Errorf("the dropped table left %v behind", left)
	}
	requireReferenceRows(t, f, m, `SELECT date, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`)
}

// TestIngestRacesCyclesSaveStateAndQueries appends parts while cycles,
// SaveState and queries run. Every query pairs each row's id with that row's
// own values and returns whole parts, whichever appends it saw and whichever
// manifest served them; at the end every row is there.
func TestIngestRacesCyclesSaveStateAndQueries(t *testing.T) {
	ctx := context.Background()
	_, wh, m := laneSystem(t, sqlengine.DefaultBatchSize, Config{ScanShareWindow: time.Millisecond})
	rows := 0
	appendPart := func(n int) error {
		part := make([][]datum.Datum, n)
		for i := range part {
			part[i] = []datum.Datum{datum.Int(int64(rows)), datum.Str(fmt.Sprintf(`{"v":%d,"w":"w%d","pad":"xx"}`, rows, 2*rows))}
			rows++
		}
		_, err := wh.AppendRows("db", "t", part)
		return err
	}
	for i := 0; i < 3; i++ {
		if err := appendPart(6); err != nil {
			t.Fatal(err)
		}
	}
	var sel []*PathProfile
	for _, p := range []string{"$.v", "$.w"} {
		sel = append(sel, &PathProfile{Key: pathkey.Key{DB: "db", Table: "t", Column: "doc", Path: p}, TotalValueBytes: 1})
	}
	if _, err := m.CacheSelected(ctx, sel); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT id, get_json_object(doc, '$.v') v, get_json_object(doc, '$.w') w FROM db.t`
	check := func(rs *sqlengine.ResultSet) error {
		ids := make([]int, 0, len(rs.Rows))
		for _, row := range rs.Rows {
			id := int(row[0].I)
			if v, w := row[1].AsString(), row[2].AsString(); v != strconv.Itoa(id) || w != fmt.Sprintf("w%d", 2*id) {
				return fmt.Errorf("row %d read v=%s w=%s", id, v, w)
			}
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				return fmt.Errorf("rows are not whole parts: id %d at %d of %d", id, i, len(ids))
			}
		}
		return nil
	}

	done := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	loop := func(op func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := op(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	loop(func() error { _, err := m.CacheSelected(ctx, sel); return err })
	loop(m.SaveState)
	for q := 0; q < 2; q++ {
		loop(func() error {
			rs, _, err := m.QueryCtx(ctx, sql)
			if err != nil {
				return err
			}
			return check(rs)
		})
	}
	for i := 0; i < 24; i++ {
		if err := appendPart(4); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	rs, _, err := m.QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(rs); err != nil || len(rs.Rows) != rows {
		t.Errorf("after the race: %d of %d rows (%v)", len(rs.Rows), rows, err)
	}
	if splitsOf(m, "ingested") == 0 {
		t.Error("no append was ingested; the race tested no ingest")
	}
}

// TestIngestUnderFaults: a fault on the append's ingest never fails the
// append. A transient one is retried; any other leaves the part unserved —
// counted, with no split filed, or filed under raw version 0 when values came
// out of a corrupted read — and the query parses it.
func TestIngestUnderFaults(t *testing.T) {
	const newRaw = "/mydb/t/part-00003"
	cases := []struct {
		name   string
		rule   fault.Rule
		served bool
	}{
		{"transient open error, retried", fault.Rule{Pattern: newRaw, Op: fault.OpOpen, Kind: fault.KindError, Transient: true, FailN: 1}, true},
		{"open error", fault.Rule{Pattern: newRaw, Op: fault.OpOpen, Kind: fault.KindError}, false},
		{"short read", fault.Rule{Pattern: newRaw, Op: fault.OpRead, Kind: fault.KindShortRead}, false},
		{"decode error", fault.Rule{Pattern: newRaw, Op: fault.OpDecode, Kind: fault.KindError}, false},
		{"decode panic", fault.Rule{Pattern: newRaw, Op: fault.OpDecode, Kind: fault.KindPanic}, false},
		{"cache part write fails", fault.Rule{Pattern: "/" + CacheDB + "/", Op: fault.OpAppend, Kind: fault.KindError}, false},
	}
	const sql = `SELECT date, get_json_object(sale_logs, '$.item_id') id, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t)
			m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
			f.wh.SetRetrySleep(func(time.Duration) {})
			mustPopulate(t, m, selection("$.item_id", "$.turnover"))
			inj := fault.New(1).Add(c.rule)
			f.wh.FS().SetInjector(inj)
			_, err := f.wh.AppendRows("mydb", "t", saleRows(5, 7))
			f.wh.FS().SetInjector(nil)
			if err != nil {
				t.Fatalf("the append failed with its ingest: %v", err)
			}
			if inj.Injected() == 0 {
				t.Fatal("the fault never fired")
			}
			failed, serves, docs := int64(1), 3, int64(5)
			if c.served {
				failed, serves, docs = 0, 4, 0
			}
			if got := m.Obs().Counter("cacher_ingest_failures_total").Value(); got != failed {
				t.Errorf("cacher_ingest_failures_total = %d, want %d", got, failed)
			}
			if got := covered(t, f, m); got != serves {
				t.Errorf("the manifest serves %d of 4 parts, want %d", got, serves)
			}
			if got := requireReferenceRows(t, f, m, sql).Parse.Docs.Load(); got != docs {
				t.Errorf("parsed %d documents, want %d", got, docs)
			}
		})
	}

	t.Run("corrupt read", func(t *testing.T) {
		// Corruption lands on random bytes; most seeds break the part's
		// framing and fail the ingest. Take the first seed whose damage stays
		// inside a value, so ingest files a split.
		for seed := int64(1); seed <= 200; seed++ {
			f := newFixture(t)
			m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
			mustPopulate(t, m, selection("$.item_id", "$.turnover"))
			f.wh.FS().SetInjector(fault.New(seed).Add(fault.Rule{Pattern: newRaw, Op: fault.OpRead, Kind: fault.KindCorrupt}))
			_, err := f.wh.AppendRows("mydb", "t", saleRows(5, 7))
			f.wh.FS().SetInjector(nil)
			if err != nil {
				t.Fatalf("the append failed with its ingest: %v", err)
			}
			mf := m.Registry.generation()["mydb.t"]
			if len(mf.Splits) == 3 {
				continue // the read did not decode: a counted failure
			}
			if sp := mf.Splits[3]; sp.RawVersion != 0 {
				t.Fatalf("values from a corrupted read filed under raw version %d", sp.RawVersion)
			}
			if n := covered(t, f, m); n != 3 {
				t.Errorf("the manifest serves %d of 4 parts, want 3", n)
			}
			if docs := requireReferenceRows(t, f, m, sql).Parse.Docs.Load(); docs != 5 {
				t.Errorf("parsed %d documents, want the corruptly read part's 5", docs)
			}
			return
		}
		t.Fatal("no seed produced a corrupt read that still decodes")
	})
}

// TestIngestMalformedDocumentIsCarried: an appended part holding a
// malformed document is ingested as populate would build it, each path read
// as if extracted alone, so the next cycle links all three splits.
func TestIngestMalformedDocumentIsCarried(t *testing.T) {
	f := malformedFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sel := selectionOf("m", "doc", "$.a", "$.c")
	mustPopulate(t, m, sel)
	malformed := m.Obs().Counter("cacher_parse_errors_total").Value()
	part, err := f.wh.AppendRows("mydb", "m", [][]datum.Datum{{datum.Str(`{"a":20,"b":21,"c":}`)}, {datum.Str(`{"a":22,"c":23}`)}})
	if err != nil {
		t.Fatal(err)
	}
	mf := m.Registry.generation()["mydb.m"]
	if last := mf.Splits[len(mf.Splits)-1]; last.RawPath != part {
		t.Fatalf("the last split is %+v, want the ingested %s", last, part)
	}
	if got := m.Obs().Counter("cacher_parse_errors_total").Value() - malformed; got != 1 {
		t.Errorf("ingest counted %d malformed documents, want 1", got)
	}
	const sql = `SELECT get_json_object(doc, '$.c') c FROM mydb.m WHERE get_json_object(doc, '$.a') = '20'`
	if met := requireReferenceRows(t, f, m, sql); met.Parse.Docs.Load() != 0 {
		t.Errorf("parsed %d documents; the ingested split is served", met.Parse.Docs.Load())
	}
	stats, err := m.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsCarried != 3 || stats.SplitsExtracted != 0 {
		t.Errorf("the next cycle: %+v, want all three splits carried", stats)
	}
	if rs, _, err := m.QueryCtx(context.Background(), sql); err != nil || len(rs.Rows) != 1 || !rs.Rows[0][0].Null {
		t.Errorf("the broken appended document reads %v (err %v), want its $.a and a NULL $.c", rs, err)
	}
}

// TestIngestSkipsAQuarantinedCacheTable: quarantine unserves the table's
// manifest, so an append to its raw table finds none to extend and writes
// nothing into it; the next cycle rebuilds every split.
func TestIngestSkipsAQuarantinedCacheTable(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sel := selection("$.turnover")
	mustPopulate(t, m, sel)
	table := m.Cacher.ActiveCacheTable("mydb", "t")
	m.Registry.Quarantine(table)
	mustAppend(f, saleRows(5, 7))
	parts, err := f.wh.Parts(CacheDB, table)
	if err != nil {
		t.Fatal(err)
	}
	if mf := m.Registry.generation()["mydb.t"]; len(parts) != 3 || mf != nil {
		t.Errorf("after the quarantine: the table has %d parts, want 3; serving manifest %+v, want none", len(parts), mf)
	}
	if n, failed := splitsOf(m, "ingested"), m.Obs().Counter("cacher_ingest_failures_total").Value(); n != 0 || failed != 0 {
		t.Errorf("%d splits ingested, %d failures counted; want neither", n, failed)
	}
	requireReferenceRows(t, f, m, `SELECT date, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`)
	stats, err := m.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsExtracted != 4 || stats.SplitsCarried != 0 {
		t.Errorf("the cycle after the quarantine: %+v, want all 4 splits extracted", stats)
	}
}

// TestIngestedSplitSurvivesSaveAndLoad: the state file holds the manifest
// ingest extended, so a restarted node serves the appended part from the
// cache and its first cycle carries every split, extracting nothing.
func TestIngestedSplitSurvivesSaveAndLoad(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sel := selection("$.item_id", "$.turnover")
	mustPopulate(t, m, sel)
	mustAppend(f, saleRows(5, 7))
	if err := m.SaveState(); err != nil {
		t.Fatal(err)
	}
	restarted := New(sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb")), Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	if err := restarted.LoadState(); err != nil {
		t.Fatal(err)
	}
	met := requireReferenceRows(t, f, restarted, `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY tv`)
	if docs, values := met.Parse.Docs.Load(), met.CacheValuesRead.Load(); docs != 0 || values != 36 {
		t.Errorf("the restarted node parsed %d documents and read %d cache values, want 0 and 36", docs, values)
	}
	stats, err := restarted.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsCarried != 4 || stats.SplitsExtracted != 0 || stats.BytesScanned != 0 {
		t.Errorf("first cycle after LoadState: %+v, want 4 carried and nothing scanned", stats)
	}
}

// TestRegistryReplaceIsCompareAndSwap: Replace installs a manifest only over
// the one it was derived from, derives its entries as Swap does, and leaves
// the other tables' entries as they were.
func TestRegistryReplaceIsCompareAndSwap(t *testing.T) {
	r := NewRegistry()
	k1 := pathkey.Key{DB: "d", Table: "t1", Column: "c", Path: "$.x"}
	k2 := pathkey.Key{DB: "d", Table: "t2", Column: "c", Path: "$.x"}
	m1 := &Manifest{CacheTable: "d__t1__g001", Keys: []pathkey.Key{k1}, Splits: []ManifestSplit{{RawPath: "p0", ColBytes: []int64{40}}}}
	m2 := &Manifest{CacheTable: "d__t2__g001", Keys: []pathkey.Key{k2}, Splits: []ManifestSplit{{RawPath: "p0", ColBytes: []int64{7}}}}
	r.Swap([]*Manifest{m1, m2})
	e2 := r.Lookup(k2)

	next := m1.withSplit(ManifestSplit{RawPath: "p1", ColBytes: []int64{2}})
	if !r.Replace(m1, next) {
		t.Fatal("Replace refused the serving manifest")
	}
	if e := r.Lookup(k1); e.Manifest != next || e.Bytes != 42 || len(m1.Splits) != 1 {
		t.Errorf("entry %+v after Replace (the old manifest has %d splits)", e, len(m1.Splits))
	}
	if r.Lookup(k2) != e2 || r.TotalBytes() != 49 {
		t.Errorf("Replace touched another table's entry, or TotalBytes = %d", r.TotalBytes())
	}
	if r.Replace(m1, m1.withSplit(ManifestSplit{RawPath: "p2", ColBytes: []int64{1}})) {
		t.Error("Replace installed over a manifest no longer serving")
	}
	r.Swap([]*Manifest{m1})
	if r.Replace(next, next.withSplit(ManifestSplit{RawPath: "p2", ColBytes: []int64{1}})) || r.Lookup(k1).Manifest != m1 {
		t.Error("Replace undid a Swap")
	}
}

// TestRegistryConcurrentWriters: writers Replace their own tables while
// another table is quarantined and readers Lookup. Every Replace lands, the
// quarantined table never serves again, and the last snapshot's totals agree
// with its entries.
func TestRegistryConcurrentWriters(t *testing.T) {
	const writers, rounds = 4, 200
	r := NewRegistry()
	key := func(table string) pathkey.Key { return pathkey.Key{DB: "d", Table: table, Column: "c", Path: "$.x"} }
	manifest := func(table string) *Manifest {
		return &Manifest{CacheTable: "d__" + table + "__g001", Keys: []pathkey.Key{key(table)}, Splits: []ManifestSplit{{RawPath: "p0000", ColBytes: []int64{1}}}}
	}
	initial := []*Manifest{manifest("q")}
	for w := 0; w < writers; w++ {
		initial = append(initial, manifest(fmt.Sprint("w", w)))
	}
	r.Swap(initial)

	var replaced, writing atomic.Int64
	var quarantined atomic.Bool
	writing.Store(writers)
	done := make(chan struct{})
	var wg, readers sync.WaitGroup
	for w := 0; w < writers; w++ {
		k := key(fmt.Sprint("w", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Add(-1)
			for i := 1; i <= rounds; i++ {
				cur := r.generation()[k.TableID()]
				next := cur.withSplit(ManifestSplit{RawPath: fmt.Sprintf("p%04d", i), ColBytes: []int64{1}})
				if !r.Replace(cur, next) || r.Lookup(k).Manifest != next {
					t.Errorf("%s: Replace %d did not land", k.Table, i)
					return
				}
				replaced.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for replaced.Load() < writers*rounds/2 && writing.Load() > 0 {
			runtime.Gosched()
		}
		if !r.Quarantine("d__q__g001") {
			t.Error("Quarantine found no serving table")
		}
		quarantined.Store(true)
	}()
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if quarantined.Load() && r.Lookup(key("q")) != nil {
					t.Error("the quarantined table serves again")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	var bytes int64
	entries := r.Entries()
	for _, e := range entries {
		bytes += e.Bytes
		if e.Key.Table != "q" && e.Bytes != rounds+1 {
			t.Errorf("%s serves %d bytes, want %d", e.Key.Table, e.Bytes, rounds+1)
		}
	}
	if r.Lookup(key("q")) != nil || len(entries) != writers {
		t.Errorf("%d entries serve, want the %d writers' (q serving: %v)", len(entries), writers, r.Lookup(key("q")) != nil)
	}
	if r.TotalBytes() != bytes || r.Len() != len(entries) || r.QuarantineCount() != 1 {
		t.Errorf("TotalBytes %d, Len %d, QuarantineCount %d; the entries sum %d bytes over %d, want 1 quarantine",
			r.TotalBytes(), r.Len(), r.QuarantineCount(), bytes, len(entries))
	}
}
