package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/datum"
	"repro/internal/sqlengine"
)

// dfsViews returns the stored bytes of every file under the warehouse, the
// memory a view-aliasing string would point into.
func dfsViews(t *testing.T, env *chaosEnv) [][]byte {
	t.Helper()
	var views [][]byte
	for _, fi := range env.fs.ListFiles("/warehouse") {
		v, err := env.fs.ReadView(fi.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Stored {
			t.Fatalf("%s: view is not the stored bytes", fi.Name)
		}
		views = append(views, v.Data)
	}
	if len(views) == 0 {
		t.Fatal("no files under /warehouse")
	}
	return views
}

// aliasesAny reports whether s points into any of the views.
func aliasesAny(s string, views [][]byte) bool {
	if len(s) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	for _, v := range views {
		if len(v) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(&v[0]))
		if p >= lo && p < lo+uintptr(len(v)) {
			return true
		}
	}
	return false
}

// TestNothingKeptAliasesAStoredFile is the other half of the ownership rule
// (orc's decoder.view): strings read from storage are views of part files,
// so nothing that outlives the query may hold one. Every string of every
// ResultSet — from a plain raw scan, a combined cache+raw scan, a fallback
// split and a shared scan — and every string of a footer the metastore
// keeps is checked, by address, against the stored bytes of every file.
func TestNothingKeptAliasesAStoredFile(t *testing.T) {
	env := newChaosEnv(t, 77, shareChaos)
	// A part file appended after the cache was populated, its ingest
	// faulted: its split is served by the fallback source.
	appendUncovered(t, env.wh, "db", "t", [][]datum.Datum{
		{datum.Int(9001), datum.Str(`{"a":11,"b":"g1","nested":{"x":50}}`)},
		{datum.Int(9002), datum.Str(`{"a":12,"b":"g2","nested":{"x":60}}`)},
	})
	views := dfsViews(t, env)

	check := func(what string, rs *sqlengine.ResultSet, wantMode uint32, m *sqlengine.Metrics) {
		t.Helper()
		if m != nil && m.ScanModes()&wantMode == 0 {
			t.Errorf("%s: no split ran in scan mode %#x (saw %#x)", what, wantMode, m.ScanModes())
		}
		strs := 0
		for _, row := range rs.Rows {
			for _, d := range row {
				if d.Typ != datum.TypeString || d.Null {
					continue
				}
				strs++
				if aliasesAny(d.S, views) {
					t.Fatalf("%s: result string %q points into a stored file", what, d.S)
				}
			}
		}
		if strs == 0 {
			t.Errorf("%s: result holds no strings; the check saw nothing", what)
		}
	}

	// Plain engine: the raw document column itself is returned.
	rs, m, err := env.e.QueryCtx(context.Background(), `SELECT id, doc FROM db.t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	check("plain", rs, sqlengine.ScanRaw, m)

	// Combined: a primary column (views of the raw file) stitched to cached
	// columns (views of the cache file); the appended split falls back.
	combined := `SELECT doc, get_json_object(doc, '$.a') a, get_json_object(doc, '$.nested.x') nx FROM db.t ORDER BY id`
	rs, m, err = env.m.QueryCtx(context.Background(), combined)
	if err != nil {
		t.Fatal(err)
	}
	check("combined", rs, sqlengine.ScanCombined, m)
	check("fallback", rs, sqlengine.ScanFallbackUncovered, m)

	// MIN/MAX and GROUP BY keep datums in aggregation state until the end.
	rs, _, err = env.m.QueryCtx(context.Background(), `SELECT get_json_object(doc, '$.a') a, MAX(doc) hi, MIN(doc) lo FROM db.t GROUP BY get_json_object(doc, '$.a')`)
	if err != nil {
		t.Fatal(err)
	}
	check("aggregate", rs, 0, nil)

	// Shared scan: concurrent identical queries coalesce into one pass whose
	// batches fan out to every participant.
	coalescedBefore := env.m.Obs().Counter("scanshare_queries_coalesced_total").Value()
	results := make([]*sqlengine.ResultSet, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, _, err := env.m.QueryCtx(context.Background(), combined)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rs
		}(i)
	}
	wg.Wait()
	if env.m.Obs().Counter("scanshare_queries_coalesced_total").Value() == coalescedBefore {
		t.Error("no query was coalesced; the shared-scan path was not exercised")
	}
	for _, rs := range results {
		if rs != nil {
			check("shared", rs, 0, nil)
		}
	}

	// Kept footers: what OpenFile serves for a stored version is the
	// metastore's copy.
	for _, table := range []struct{ db, name string }{{"db", "t"}, {CacheDB, env.m.Cacher.ActiveCacheTable("db", "t")}} {
		info, err := env.wh.Table(table.db, table.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range info.Files {
			r, err := env.wh.OpenFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range r.Schema().Columns {
				stats, err := r.RowGroupStats(c.Name)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range stats {
					if aliasesAny(c.Name, views) || aliasesAny(st.MinS, views) || aliasesAny(st.MaxS, views) {
						t.Fatalf("kept footer of %s points into a stored file", file)
					}
				}
			}
		}
	}
}

// TestExtractedRowsSurviveRewriteAndDrop is the lifetime rule of extracted
// values (DESIGN.md "JSON extraction") seen from a query: a scalar the
// extractor hands out is a view of the document, which is a view of the part
// file, whose stored bytes dfs never writes again. A raw-lane query and a
// fallback-raw query are executed, then every part file of the table is
// rewritten with other rows and the table dropped, and only then is the
// result read: it holds the rows the query saw, to the byte.
func TestExtractedRowsSurviveRewriteAndDrop(t *testing.T) {
	const sql = `SELECT date, get_json_object(sale_logs, '$.item_name') n,
		get_json_object(sale_logs, '$.turnover') tv, get_json_object(sale_logs, '$.price') p
		FROM mydb.t ORDER BY date`
	appended := [][]datum.Datum{{datum.Str("0001"), datum.Str("20190201"),
		datum.Str(`{"item_id":32,"item_name":"late \"item\"","sale_count":1,"turnover":320,"price":3}`)}}

	for _, lane := range []struct {
		mode  string
		setup func(t *testing.T, f *fixture, m *Maxson)
	}{
		{"raw", func(*testing.T, *fixture, *Maxson) {}},
		{"fallback-raw", func(t *testing.T, f *fixture, m *Maxson) {
			// A part file appended after populate, its ingest faulted: its
			// split is parsed raw by the combiner's fallback source.
			cachePaths(t, m, "$.turnover")
			appendUncovered(t, f.wh, "mydb", "t", appended)
		}},
	} {
		t.Run(lane.mode, func(t *testing.T) {
			// The reference: a plain engine over a twin warehouse, rendered
			// into one fresh string before anything is mutated.
			twin := newFixture(t)
			if lane.mode == "fallback-raw" {
				if _, err := twin.wh.AppendRows("mydb", "t", appended); err != nil {
					t.Fatal(err)
				}
			}
			ref, _, err := twin.engine.QueryCtx(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprint(ref.Rows)

			f := newFixture(t)
			m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
			lane.setup(t, f, m)
			rs, metrics, err := m.QueryCtx(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := metrics.PlanModeString(); got != lane.mode {
				t.Fatalf("plan mode %s, want %s", got, lane.mode)
			}
			if metrics.Parse.Docs.Load() == 0 {
				t.Fatal("the query parsed no document: nothing was extracted")
			}

			info, err := f.wh.Table("mydb", "t")
			if err != nil {
				t.Fatal(err)
			}
			f.clock.Advance(time.Hour)
			for i, file := range info.Files {
				other := [][]datum.Datum{{datum.Str("9999"), datum.Str(fmt.Sprintf("2099010%d", i)),
					datum.Str(`{"item_id":0,"item_name":"REWRITTEN","sale_count":0,"turnover":-1,"price":-1}`)}}
				if err := f.wh.RewriteFile("mydb", "t", file, other); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.wh.DropTable("mydb", "t"); err != nil {
				t.Fatal(err)
			}

			if got := fmt.Sprint(rs.Rows); got != want {
				t.Errorf("rows read after rewrite and drop:\n got %s\nwant %s", got, want)
			}
		})
	}
}
