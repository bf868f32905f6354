package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlengine"
)

// reaimQueries read the mixed table of reaimNode every way a split can be
// read: cache-only, combined beside a raw column and an uncached path, with
// the cache side's skip array shared (pushdown), under the column tail, and
// as both sides of a join, whose build side is one walk over every split.
var reaimQueries = []string{
	`SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`,
	`SELECT date, get_json_object(sale_logs, '$.item_id') id, get_json_object(sale_logs, '$.item_name') n FROM mydb.t`,
	`SELECT date, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t WHERE get_json_object(sale_logs, '$.item_id') = '5'`,
	`SELECT COUNT(*) n, SUM(cast_double(get_json_object(sale_logs, '$.turnover'))) s FROM mydb.t WHERE get_json_object(sale_logs, '$.item_id') >= '3'`,
	`SELECT a.date, get_json_object(b.sale_logs, '$.item_name') n FROM mydb.t a JOIN mydb.t b ON get_json_object(a.sale_logs, '$.item_id') = get_json_object(b.sale_logs, '$.item_id')`,
}

// reaimNode builds the sale-logs fixture on an engine of parallelism par and
// batch size batch, caches two paths, and mixes how its five splits are
// served: splits 0 and 2 and the appended 4 from the cache (the append
// through ingest), 1 rewritten since (fallback-uncovered), and the appended
// 3 filed under a cache version its part is not at, so opening it
// quarantines the table (fallback-quarantined). restore re-installs that
// generation, lifting the quarantine the last query left.
func reaimNode(t *testing.T, par, batch int, cfg Config) (f *fixture, m *Maxson, restore func()) {
	t.Helper()
	f = newFixture(t)
	e := sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb"), sqlengine.WithParallelism(par), sqlengine.WithBatchSize(batch))
	cfg.BudgetBytes, cfg.DefaultDB = 1<<30, "mydb"
	m = New(e, cfg)
	mustPopulate(t, m, selection("$.item_id", "$.turnover"))
	mustAppend(f, saleRows(6, 3))
	mustAppend(f, saleRows(9, 4))
	mustRewrite(t, f, 1, saleRows(12, 5))
	mf := *m.Registry.generation()["mydb.t"]
	mf.Splits = slices.Clone(mf.Splits)
	quarantined := rawParts(t, f)[3]
	i := slices.IndexFunc(mf.Splits, func(sp ManifestSplit) bool { return sp.RawPath == quarantined })
	if i < 0 {
		t.Fatalf("the append %s was not ingested", quarantined)
	}
	mf.Splits[i].CacheVersion += 1000
	restore = func() { m.Registry.Swap([]*Manifest{&mf}) }
	restore()
	return f, m, restore
}

// openLog stands in for a scan's factory and keeps what each Open was
// handed and returned. A fresh log hands every Open a nil prev, so each
// split opens as it did before scan workers re-aimed their sources.
type openLog struct {
	sqlengine.ScanSourceFactory
	fresh bool

	mu      sync.Mutex
	splits  map[int]*sqlengine.Metrics
	seen    map[sqlengine.BatchSource]bool
	handed  int // Opens handed a prev
	reaimed int // Opens that returned a source an earlier Open returned
}

// Open implements sqlengine.ScanSourceFactory.
func (l *openLog) Open(split int, m *sqlengine.Metrics, prev sqlengine.BatchSource) (sqlengine.BatchSource, error) {
	if l.fresh {
		prev = nil
	}
	src, err := l.ScanSourceFactory.Open(split, m, prev)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.splits[split] = m
	if prev != nil {
		l.handed++
	}
	if src != nil {
		if l.seen[src] {
			l.reaimed++
		}
		l.seen[src] = true
	}
	return src, err
}

// splitReading is what one split metered and how it was served.
type splitReading struct {
	Rows, Bytes, Groups, Skipped int64
	Parse                        sqlengine.ParseCounts
	CacheValues                  int64
	Modes                        uint32
	Source, Pushdown             string
}

// readingOf snapshots m, and the source and pushdown its span records.
func readingOf(m *sqlengine.Metrics) splitReading {
	r := splitReading{
		Rows: m.RowsScanned.Load(), Bytes: m.BytesRead.Load(),
		Groups: m.RowGroupsRead.Load(), Skipped: m.RowGroupsSkipped.Load(),
		Parse: m.Parse.Snapshot(), CacheValues: m.CacheValuesRead.Load(), Modes: m.ScanModes(),
	}
	if m.Span != nil {
		r.Source, r.Pushdown = m.Span.Attr("source"), m.Span.Attr("pushdown")
	}
	return r
}

// reaimRun is one traced query through openLogs.
type reaimRun struct {
	explain         string
	total           splitReading
	splits          []splitReading // the probe scan's, by split
	handed, reaimed int            // over both scans
}

// runLogged runs sql through m traced, every scan's factory behind an
// openLog (fresh or not), and checks its rows against the reference.
func runLogged(t *testing.T, f *fixture, m *Maxson, sql string, fresh bool) reaimRun {
	t.Helper()
	var logs []*openLog
	modify := m.Engine.PlanModifier
	m.Engine.PlanModifier = func(plan *sqlengine.PhysicalPlan, stmt *sqlengine.SelectStmt) (int64, error) {
		extra, err := modify(plan, stmt)
		scans := []*sqlengine.ScanNode{plan.Scan}
		if plan.Join != nil {
			scans = append(scans, plan.Join.Build)
		}
		for _, scan := range scans {
			inner := scan.Factory
			if inner == nil {
				inner = sqlengine.NewSplitReader(f.wh, scan, m.Engine.Backend())
			}
			l := &openLog{ScanSourceFactory: inner, fresh: fresh,
				splits: map[int]*sqlengine.Metrics{}, seen: map[sqlengine.BatchSource]bool{}}
			scan.Factory = l
			logs = append(logs, l)
		}
		return extra, err
	}
	defer func() { m.Engine.PlanModifier = modify }()
	text, rs, met, err := m.ExplainCtx(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	requireReference(t, f.wh, "mydb", sql, rs)
	run := reaimRun{explain: text, total: readingOf(met)}
	run.total.Source, run.total.Pushdown = "", ""
	for split := 0; split < len(logs[0].splits); split++ {
		run.splits = append(run.splits, readingOf(logs[0].splits[split]))
	}
	for _, l := range logs {
		run.handed += l.handed
		run.reaimed += l.reaimed
	}
	return run
}

// TestReaimedScanMatchesFreshOpens holds scan workers that re-aim one source
// split after split (cursor, extraction, combined and fallback lanes) to
// what a fresh open per split reads. Over a table whose splits are served
// from the cache, uncovered and quarantined on open, at parallelism 1 and 4
// and batch sizes 1 and 1024, every query returns the reference's rows, and
// every split meters what it metered opened fresh — rows scanned, bytes and
// row groups read and skipped, parse work, cache values, scan mode and the
// source its span records — and so does the query, the join build included.
// A shared pass over the same splits meters, in all, what one unshared query
// does.
func TestReaimedScanMatchesFreshOpens(t *testing.T) {
	// How the five splits are served when the cache serves a query's paths.
	cacheOnly := []uint32{sqlengine.ScanCacheOnly, sqlengine.ScanFallbackUncovered, sqlengine.ScanCacheOnly,
		sqlengine.ScanFallbackQuarantined, sqlengine.ScanCacheOnly}
	for _, par := range []int{1, 4} {
		for _, batch := range []int{1, 1024} {
			t.Run(fmt.Sprintf("parallelism%d/batch%d", par, batch), func(t *testing.T) {
				f, m, restore := reaimNode(t, par, batch, Config{})
				for q, sql := range reaimQueries {
					restore()
					fresh := runLogged(t, f, m, sql, true)
					restore()
					reaimed := runLogged(t, f, m, sql, false)
					if fresh.handed != 0 || fresh.reaimed != 0 {
						t.Fatalf("%s: fresh opens were handed a source or returned one twice", sql)
					}
					// Five splits on at most four workers: some worker runs
					// two. On one, every split after the first is handed its
					// predecessor's source, and each lane's second split
					// re-aims the first's.
					if reaimed.handed == 0 || par == 1 && reaimed.reaimed == 0 {
						t.Errorf("%s: %d splits handed a source, %d re-aimed one", sql, reaimed.handed, reaimed.reaimed)
					}
					if q == 0 {
						for split, r := range fresh.splits {
							if r.Modes != cacheOnly[split] {
								t.Fatalf("split %d served in mode %b, want %b: the table does not mix its splits", split, r.Modes, cacheOnly[split])
							}
						}
					}
					if len(reaimed.splits) != len(fresh.splits) {
						t.Fatalf("%s: %d splits opened re-aimed, %d fresh", sql, len(reaimed.splits), len(fresh.splits))
					}
					for split := range fresh.splits {
						if reaimed.splits[split] != fresh.splits[split] {
							t.Errorf("%s: split %d re-aimed read %+v, opened fresh %+v", sql, split, reaimed.splits[split], fresh.splits[split])
						}
					}
					if reaimed.total != fresh.total {
						t.Errorf("%s: query re-aimed read %+v, opened fresh %+v", sql, reaimed.total, fresh.total)
					}
					if reaimed.explain != fresh.explain {
						t.Errorf("%s: EXPLAIN ANALYZE differs:\nre-aimed\n%s\nfresh\n%s", sql, reaimed.explain, fresh.explain)
					}
				}
			})
		}
	}

	// Two queries of one statement in one shared pass: the producer walks
	// every split re-aiming its sources, and the pass meters, in all, what
	// one query opening each split fresh does.
	t.Run("shared pass", func(t *testing.T) {
		f, m, restore := reaimNode(t, 2, sqlengine.DefaultBatchSize, Config{ScanShareWindow: 5 * time.Second, ScanShareMaxQueries: 2})
		sql := reaimQueries[1]
		want := runLogged(t, f, m, sql, true).total
		want.Parse.Calls, want.Modes = 0, 0 // each participant's executor counts its own calls
		for i := 0; i < 2; i++ {            // the second arrival marks the scan contended
			restore()
			if _, _, err := m.QueryCtx(context.Background(), sql); err != nil {
				t.Fatal(err)
			}
		}
		restore()
		coalesced := m.Obs().Counter("scanshare_queries_coalesced_total").Value()
		metrics := make([]*sqlengine.Metrics, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range metrics {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var rs *sqlengine.ResultSet
				if rs, metrics[i], errs[i] = m.QueryCtx(context.Background(), sql); errs[i] == nil {
					requireReference(t, f.wh, "mydb", sql, rs)
				}
			}(i)
		}
		wg.Wait()
		var got splitReading
		for i, qm := range metrics {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			r := readingOf(qm)
			got.Rows += r.Rows
			got.Bytes += r.Bytes
			got.Groups += r.Groups
			got.Skipped += r.Skipped
			got.Parse.Docs += r.Parse.Docs
			got.Parse.Bytes += r.Parse.Bytes
			got.Parse.Skipped += r.Parse.Skipped
			got.CacheValues += r.CacheValues
		}
		if n := m.Obs().Counter("scanshare_queries_coalesced_total").Value() - coalesced; n != 2 {
			t.Fatalf("coalesced %d queries, want 2 in one shared pass", n)
		}
		if got != want {
			t.Errorf("the shared pass metered %+v in all, one query opening each split fresh %+v", got, want)
		}
	})
}
