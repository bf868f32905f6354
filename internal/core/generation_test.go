package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
)

// The generation suite checks the cacher's incremental populate against the
// one thing it must equal: what a cacher with no history writes for the same
// selection over the same raw files. Every comparison is of part-file bytes.

// selection builds profiles for paths of mydb.t's sale_logs column.
func selection(paths ...string) []*PathProfile { return selectionOf("t", "sale_logs", paths...) }

// selectionOf builds profiles for paths of one JSON column of a mydb table.
func selectionOf(table, column string, paths ...string) []*PathProfile {
	out := make([]*PathProfile, len(paths))
	for i, p := range paths {
		// measured fields are only needed for selection, not caching
		out[i] = &PathProfile{Key: pathkey.Key{DB: "mydb", Table: table, Column: column, Path: p}, TotalValueBytes: 1}
	}
	return out
}

// saleRows builds n sale-log rows whose values depend on salt, so rewritten
// and recreated part files differ from the fixture's.
func saleRows(n, salt int) [][]datum.Datum {
	rows := make([][]datum.Datum, n)
	for i := range rows {
		v := salt*100 + i
		rows[i] = []datum.Datum{datum.Str("0002"), datum.Str(fmt.Sprintf("2019%04d", v)), datum.Str(fmt.Sprintf(
			`{"item_id":%d,"item_name":"item-%04d","sale_count":%d,"turnover":%d,"price":%d}`,
			v, v, v%7+1, v*10, v%5+1))}
	}
	return rows
}

// cacheParts returns the bytes of every part file of mydb.t's active cache
// table, in split order.
func cacheParts(t *testing.T, f *fixture, m *Maxson) [][]byte {
	t.Helper()
	return cachePartsOf(t, f, m, "t")
}

func cachePartsOf(t *testing.T, f *fixture, m *Maxson, rawTable string) [][]byte {
	t.Helper()
	table := m.Cacher.ActiveCacheTable("mydb", rawTable)
	if table == "" {
		t.Fatalf("nothing of mydb.%s is cached", rawTable)
	}
	info, err := f.wh.Table(CacheDB, table)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]byte, len(info.Files))
	for i, name := range info.Files {
		if parts[i], err = f.wh.FS().ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

func entryBytes(m *Maxson) map[pathkey.Key]int64 {
	out := map[pathkey.Key]int64{}
	for _, e := range m.Registry.Entries() {
		out[e.Key] = e.Bytes
	}
	return out
}

// freshGeneration builds a second system over the same raw data (the fixture
// after mutate) and populates sel on it from nothing: the reference an
// incremental generation must match byte for byte.
func freshGeneration(t *testing.T, mutate func(*fixture), sel []*PathProfile) (parts [][]byte, entries map[pathkey.Key]int64, stats CacheStats) {
	t.Helper()
	f := newFixture(t)
	if mutate != nil {
		mutate(f)
	}
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	stats, err := m.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	return cacheParts(t, f, m), entryBytes(m), stats
}

// requireSameGeneration fails unless m's active generation of mydb.t is the
// reference: byte-equal part files, equal CacheEntry.Bytes, aligned.
func requireSameGeneration(t *testing.T, f *fixture, m *Maxson, wantParts [][]byte, wantEntries map[pathkey.Key]int64) {
	t.Helper()
	got := cacheParts(t, f, m)
	if len(got) != len(wantParts) {
		t.Fatalf("generation has %d part files, a from-scratch populate writes %d", len(got), len(wantParts))
	}
	for i := range got {
		if !bytes.Equal(got[i], wantParts[i]) {
			t.Errorf("cache split %d differs from a from-scratch populate (%d vs %d bytes)", i, len(got[i]), len(wantParts[i]))
		}
	}
	gotEntries := entryBytes(m)
	if len(gotEntries) != len(wantEntries) {
		t.Errorf("registry holds %d entries, want %d", len(gotEntries), len(wantEntries))
	}
	for k, b := range wantEntries {
		if gotEntries[k] != b {
			t.Errorf("CacheEntry.Bytes of %s = %d, a from-scratch populate measures %d", k, gotEntries[k], b)
		}
	}
	if err := m.Cacher.VerifyAlignment("mydb", "t"); err != nil {
		t.Error(err)
	}
}

func rawParts(t *testing.T, f *fixture) []string {
	t.Helper()
	info, err := f.wh.Table("mydb", "t")
	if err != nil {
		t.Fatal(err)
	}
	return info.Files
}

// TestGenerationEquivalence is the table: every way tonight's selection can
// relate to last night's, crossed with every way the raw table can have
// changed in between.
func TestGenerationEquivalence(t *testing.T) {
	first := []string{"$.item_id", "$.turnover", "$.item_name"}
	// kind says what a split whose raw file is unchanged becomes.
	selections := []struct {
		name  string
		paths []string
		kind  string // "carried", "rewritten" or "extracted"
		scans bool   // an unchanged split still needs its raw JSON
	}{
		{"unchanged", first, "carried", false},
		{"subset", []string{"$.item_id", "$.item_name"}, "rewritten", false},
		{"superset", append(append([]string{}, first...), "$.price"), "rewritten", true},
		{"reordered", []string{"$.turnover", "$.item_name", "$.item_id"}, "rewritten", false},
		{"disjoint", []string{"$.price", "$.sale_count"}, "extracted", true},
	}
	// unchanged is how many of the resulting raw splits still are the files
	// the first generation read.
	mutations := []struct {
		name      string
		mutate    func(*fixture)
		splits    int
		unchanged int
	}{
		{"no new split", nil, 3, 3},
		{"appended split", func(f *fixture) {
			mustAppend(f, saleRows(5, 7))
		}, 4, 3},
		{"rewritten split", func(f *fixture) {
			info, _ := f.wh.Table("mydb", "t")
			if err := f.wh.RewriteFile("mydb", "t", info.Files[1], saleRows(9, 8)); err != nil {
				panic(err)
			}
		}, 3, 2},
		{"dropped and recreated", func(f *fixture) {
			info, _ := f.wh.Table("mydb", "t")
			if err := f.wh.DropTable("mydb", "t"); err != nil {
				panic(err)
			}
			if err := f.wh.CreateTable("mydb", "t", info.Schema); err != nil {
				panic(err)
			}
			mustAppend(f, saleRows(10, 1))
			mustAppend(f, saleRows(10, 2))
			mustAppend(f, saleRows(11, 3))
		}, 3, 0},
	}
	for _, sel := range selections {
		for _, mut := range mutations {
			t.Run(sel.name+"/"+mut.name, func(t *testing.T) {
				f := newFixture(t)
				m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
				if _, err := m.CacheSelected(context.Background(), selection(first...)); err != nil {
					t.Fatal(err)
				}
				f.clock.Advance(time.Hour)
				if mut.mutate != nil {
					mut.mutate(f)
				}
				f.clock.Advance(time.Hour)
				stats, err := m.CacheSelected(context.Background(), selection(sel.paths...))
				if err != nil {
					t.Fatal(err)
				}
				wantParts, wantEntries, fresh := freshGeneration(t, mut.mutate, selection(sel.paths...))
				requireSameGeneration(t, f, m, wantParts, wantEntries)

				want := map[string]int{"carried": 0, "rewritten": 0, "extracted": mut.splits - mut.unchanged}
				want[sel.kind] += mut.unchanged
				got := map[string]int{"carried": stats.SplitsCarried, "rewritten": stats.SplitsRewritten, "extracted": stats.SplitsExtracted}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("splits %v, want %v", got, want)
				}
				if extracts := sel.scans || mut.unchanged < mut.splits; !extracts && stats.BytesScanned != 0 {
					t.Errorf("nothing had to be extracted, yet %d raw JSON bytes were scanned", stats.BytesScanned)
				} else if extracts && stats.BytesScanned == 0 {
					t.Error("values were extracted without scanning a byte")
				}
				if stats.BytesScanned > fresh.BytesScanned {
					t.Errorf("scanned %d bytes, a from-scratch populate scans %d", stats.BytesScanned, fresh.BytesScanned)
				}
				if total := stats.BytesWritten + stats.BytesCarried; total != fresh.BytesWritten {
					t.Errorf("written %d + carried %d bytes, the generation holds %d", stats.BytesWritten, stats.BytesCarried, fresh.BytesWritten)
				}

				// The night after, nothing has changed at all: no raw byte is
				// read, no cache byte encoded, and the bytes still are the same.
				again, err := m.CacheSelected(context.Background(), selection(sel.paths...))
				if err != nil {
					t.Fatal(err)
				}
				if again.BytesScanned != 0 || again.BytesWritten != 0 || again.RowsParsed != 0 ||
					again.SplitsCarried != mut.splits || again.SplitsRewritten+again.SplitsExtracted != 0 {
					t.Errorf("unchanged cycle: %+v, want %d carried splits and nothing else", again, mut.splits)
				}
				if again.BytesCarried != fresh.BytesWritten {
					t.Errorf("unchanged cycle carried %d bytes, the generation holds %d", again.BytesCarried, fresh.BytesWritten)
				}
				requireSameGeneration(t, f, m, wantParts, wantEntries)
			})
		}
	}
}

func mustAppend(f *fixture, rows [][]datum.Datum) {
	if _, err := f.wh.AppendRows("mydb", "t", rows); err != nil {
		panic(err)
	}
}

// TestAppendedSplitIsAllThatIsScanned pins the nightly case: the selection is
// last night's and one day of data arrived, so exactly that day is parsed.
func TestAppendedSplitIsAllThatIsScanned(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb", Obs: reg})
	paths := []string{"$.item_id", "$.turnover"}
	if _, err := m.CacheSelected(context.Background(), selection(paths...)); err != nil {
		t.Fatal(err)
	}
	day := saleRows(6, 4)
	mustAppend(f, day)
	f.wh.FS().ResetStats()
	stats, err := m.CacheSelected(context.Background(), selection(paths...))
	if err != nil {
		t.Fatal(err)
	}

	// The same day alone in a table, populated from nothing.
	alone := newFixture(t)
	if err := alone.wh.CreateTable("mydb", "day", orc.Schema{Columns: []orc.Column{
		{Name: "mall_id", Type: datum.TypeString}, {Name: "date", Type: datum.TypeString}, {Name: "sale_logs", Type: datum.TypeString}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alone.wh.AppendRows("mydb", "day", day); err != nil {
		t.Fatal(err)
	}
	want, err := New(alone.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"}).CacheSelected(context.Background(), selectionOf("day", "sale_logs", paths...))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesScanned != want.BytesScanned || stats.RowsParsed != int64(len(day)) || stats.BytesWritten != want.BytesWritten {
		t.Errorf("scanned %d bytes of %d rows and wrote %d; the new split alone is %d bytes, %d rows, %d written",
			stats.BytesScanned, stats.RowsParsed, stats.BytesWritten, want.BytesScanned, len(day), want.BytesWritten)
	}
	if stats.SplitsCarried != 3 || stats.SplitsExtracted != 1 || stats.SplitsRewritten != 0 {
		t.Errorf("splits: %+v, want 3 carried and 1 extracted", stats)
	}
	// One raw part opened, and no cache part: links read nothing.
	if io := f.wh.FS().Stats(); io.Opens != 1 {
		t.Errorf("the cycle opened %d files, want only the new raw split", io.Opens)
	}
	for mode, want := range map[string]int64{"carried": 3, "rewritten": 0, "extracted": 4} {
		if got := reg.Counter("cacher_splits_total", obs.L{K: "mode", V: mode}).Value(); got != want {
			t.Errorf("cacher_splits_total{mode=%q} = %d, want %d", mode, got, want)
		}
	}
}

// debugLog returns a logger that records debug lines, and the buffer.
func debugLog() (*slog.Logger, *syncBuffer) {
	buf := &syncBuffer{}
	return slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug})), buf
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestQuarantinedGenerationIsNeverCarried: a cache table that failed a query
// is rebuilt from the raw files, which is what lets the new generation lift
// the quarantine.
func TestQuarantinedGenerationIsNeverCarried(t *testing.T) {
	f := newFixture(t)
	logger, logged := debugLog()
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb", Logger: logger})
	sel := selection("$.item_id", "$.turnover")
	if _, err := m.CacheSelected(context.Background(), sel); err != nil {
		t.Fatal(err)
	}
	wantParts, wantEntries := cacheParts(t, f, m), entryBytes(m)
	m.Registry.Quarantine(CacheDB, m.Cacher.ActiveCacheTable("mydb", "t"))

	stats, err := m.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsCarried+stats.SplitsRewritten != 0 || stats.SplitsExtracted != 3 || stats.BytesCarried != 0 {
		t.Errorf("splits of a quarantined table were carried: %+v", stats)
	}
	if n := m.Registry.QuarantineCount(); n != 0 {
		t.Errorf("%d tables still quarantined after a new generation", n)
	}
	requireSameGeneration(t, f, m, wantParts, wantEntries)
	if !strings.Contains(logged.String(), "quarantined:3") {
		t.Errorf("no debug record says why nothing was carried:\n%s", logged.String())
	}

	// The rebuilt generation has provenance again.
	if stats, err = m.CacheSelected(context.Background(), sel); err != nil || stats.SplitsCarried != 3 {
		t.Errorf("generation after the rebuilt one: %+v, %v; want 3 carried", stats, err)
	}
}

// TestChangedCachePartIsNeverCarried: a cache part that is no longer the
// bytes the cacher stored (here: rewritten with fewer rows) is not trusted.
func TestChangedCachePartIsNeverCarried(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sel := selection("$.item_id", "$.turnover")
	if _, err := m.CacheSelected(context.Background(), sel); err != nil {
		t.Fatal(err)
	}
	wantParts, wantEntries := cacheParts(t, f, m), entryBytes(m)
	table := m.Cacher.ActiveCacheTable("mydb", "t")
	info, err := f.wh.Table(CacheDB, table)
	if err != nil {
		t.Fatal(err)
	}
	short := [][]datum.Datum{{datum.Str("1"), datum.Str("2")}}
	if err := f.wh.RewriteFile(CacheDB, table, info.Files[1], short); err != nil {
		t.Fatal(err)
	}
	stats, err := m.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsCarried != 2 || stats.SplitsExtracted != 1 {
		t.Errorf("splits: %+v, want the changed one extracted and 2 carried", stats)
	}
	requireSameGeneration(t, f, m, wantParts, wantEntries)
}

// TestTransformedRawReadFilesNoProvenance: values extracted from a read the
// fault injector mangled belong to no stored version, so the next cycle
// extracts that split again — and from the stored bytes this time.
func TestTransformedRawReadFilesNoProvenance(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sel := selection("$.item_id", "$.turnover")
	part1 := rawParts(t, f)[1]
	// Corruption lands on random bytes; most seeds break the file's framing
	// and fail the cycle outright (which files nothing at all). Take the
	// first seed whose damage stays inside a value.
	populated := false
	for seed := int64(1); seed <= 200 && !populated; seed++ {
		inj := fault.New(seed)
		inj.Add(fault.Rule{Pattern: part1, Op: fault.OpRead, Kind: fault.KindCorrupt})
		f.wh.FS().SetInjector(inj)
		_, err := m.CacheSelected(context.Background(), sel)
		populated = err == nil
	}
	f.wh.FS().SetInjector(nil)
	if !populated {
		t.Fatal("no seed produced a corrupt read that still decodes")
	}
	stats, err := m.CacheSelected(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsCarried != 2 || stats.SplitsExtracted != 1 {
		t.Errorf("splits: %+v, want the corruptly read one extracted again and 2 carried", stats)
	}
	wantParts, wantEntries, _ := freshGeneration(t, nil, sel)
	requireSameGeneration(t, f, m, wantParts, wantEntries)
}

// TestAbortedCycleLeavesThePreviousGenerationWhole kills a cycle after it has
// linked three splits into the new table, three ways. Each time the serving
// generation keeps its bytes, no table (so no link) of the dead one survives,
// and the next cycle still carries from the generation that was left.
func TestAbortedCycleLeavesThePreviousGenerationWhole(t *testing.T) {
	kills := []struct {
		name string
		arm  func(inj *fault.Injector, cancel context.CancelFunc, newRaw string)
	}{
		{"cancel", func(inj *fault.Injector, cancel context.CancelFunc, newRaw string) {
			inj.Add(fault.Rule{Pattern: newRaw, Op: fault.OpOpen, Kind: fault.KindLatency, Latency: 1})
			inj.SetSleep(func(time.Duration) { cancel() })
		}},
		{"append fails", func(inj *fault.Injector, _ context.CancelFunc, _ string) {
			inj.Add(fault.Rule{Pattern: CacheDB + "/mydb__t__g002/part-00003", Op: fault.OpAppend, Kind: fault.KindError})
		}},
		{"worker panics", func(inj *fault.Injector, _ context.CancelFunc, newRaw string) {
			inj.Add(fault.Rule{Pattern: newRaw, Op: fault.OpDecode, Kind: fault.KindPanic})
		}},
		{"link fails", func(inj *fault.Injector, _ context.CancelFunc, _ string) {
			inj.Add(fault.Rule{Pattern: CacheDB + "/mydb__t__g002/part-00002", Op: fault.OpAppend, Kind: fault.KindError})
		}},
	}
	for _, kill := range kills {
		t.Run(kill.name, func(t *testing.T) {
			f := newFixture(t)
			m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
			sel := selection("$.item_id", "$.turnover")
			if _, err := m.CacheSelected(context.Background(), sel); err != nil {
				t.Fatal(err)
			}
			serving := m.Cacher.ActiveCacheTable("mydb", "t")
			before, entries := cacheParts(t, f, m), entryBytes(m)
			mustAppend(f, saleRows(5, 7))
			newRaw := rawParts(t, f)[3]

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := fault.New(1)
			kill.arm(inj, cancel, newRaw)
			f.wh.FS().SetInjector(inj)
			if _, err := m.Cacher.PopulateCtx(ctx, sel); err == nil {
				t.Fatal("the killed cycle reported success")
			}
			f.wh.FS().SetInjector(nil)
			if inj.Injected() == 0 {
				t.Fatal("the kill never fired")
			}

			if got := m.Cacher.ActiveCacheTable("mydb", "t"); got != serving {
				t.Fatalf("serving %s after an aborted cycle, was %s", got, serving)
			}
			if tables := f.wh.ListTables(CacheDB); len(tables) != 1 || tables[0] != serving {
				t.Errorf("cache tables after the abort: %v, want only %s", tables, serving)
			}
			for _, name := range f.wh.FS().List("/warehouse/" + CacheDB) {
				if !strings.Contains(name, serving+"/") {
					t.Errorf("orphan file %s", name)
				}
			}
			after := cacheParts(t, f, m)
			for i := range before {
				if !bytes.Equal(before[i], after[i]) {
					t.Errorf("serving split %d changed under an aborted cycle", i)
				}
			}
			if fmt.Sprint(entryBytes(m)) != fmt.Sprint(entries) {
				t.Error("registry changed under an aborted cycle")
			}

			stats, err := m.CacheSelected(context.Background(), sel)
			if err != nil {
				t.Fatal(err)
			}
			if stats.SplitsCarried != 3 || stats.SplitsExtracted != 1 {
				t.Errorf("cycle after the abort: %+v, want 3 carried and 1 extracted", stats)
			}
			wantParts, wantEntries, _ := freshGeneration(t, func(f *fixture) { mustAppend(f, saleRows(5, 7)) }, sel)
			requireSameGeneration(t, f, m, wantParts, wantEntries)
		})
	}
}

// TestRestoredStateExtractsEverythingOnce: provenance is not persisted, so
// the first cycle after LoadState — on a restarted node or a live one — reads
// every raw split, writes what it would have written anyway, and the cycle
// after it carries again.
func TestRestoredStateExtractsEverythingOnce(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sel := selection("$.item_id", "$.turnover")
	if _, err := m.CacheSelected(context.Background(), sel); err != nil {
		t.Fatal(err)
	}
	wantParts, wantEntries := cacheParts(t, f, m), entryBytes(m)
	const sql = `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`
	want, _, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveState(); err != nil {
		t.Fatal(err)
	}

	restarted := New(sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb")), Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	for name, node := range map[string]*Maxson{"restarted node": restarted, "live node": m} {
		if err := node.LoadState(); err != nil {
			t.Fatal(err)
		}
		stats, err := node.CacheSelected(context.Background(), sel)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SplitsCarried+stats.SplitsRewritten != 0 || stats.SplitsExtracted != 3 {
			t.Errorf("%s, first cycle after LoadState: %+v, want 3 extracted", name, stats)
		}
		requireSameGeneration(t, f, node, wantParts, wantEntries)
		got, _, err := node.QueryCtx(context.Background(), sql)
		if err != nil || got.String() != want.String() {
			t.Errorf("%s: results changed across LoadState (err %v)", name, err)
		}
		if stats, err = node.CacheSelected(context.Background(), sel); err != nil || stats.SplitsCarried != 3 {
			t.Errorf("%s, second cycle: %+v, %v; want 3 carried", name, stats, err)
		}
		// The other node's view of the registry is now behind; save this one's
		// so the next iteration loads a registry whose tables exist.
		if err := node.SaveState(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRewriteDuringPopulateInvalidates: a raw part rewritten after the cycle
// read it (here: while the cycle opens the next part) must leave entries the
// planner calls stale. CachedAt used to be stamped after the scan, later than
// such a rewrite, and the poisoned values were served.
func TestRewriteDuringPopulateInvalidates(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	raw := rawParts(t, f)
	inj := fault.New(1)
	inj.Add(fault.Rule{Pattern: raw[1], Op: fault.OpOpen, Kind: fault.KindLatency, Latency: 1, FailN: 1})
	inj.SetSleep(func(time.Duration) {
		f.clock.Advance(time.Minute)
		if err := f.wh.RewriteFile("mydb", "t", raw[0], saleRows(10, 9)); err != nil {
			t.Error(err)
		}
		f.clock.Advance(time.Minute)
	})
	f.wh.FS().SetInjector(inj)
	if _, err := m.CacheSelected(context.Background(), selection("$.turnover")); err != nil {
		t.Fatal(err)
	}
	f.wh.FS().SetInjector(nil)
	if inj.Injected() != 1 {
		t.Fatalf("the rewrite fired %d times, want once", inj.Injected())
	}

	const sql = `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`
	want, _, err := sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb")).QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	got, met, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("the query stitched values cached before the rewrite (plan %s):\ngot  %s\nwant %s",
			met.PlanModeString(), got.String(), want.String())
	}

	// The next cycle sees the new version and extracts that split again.
	stats, err := m.CacheSelected(context.Background(), selection("$.turnover"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SplitsExtracted != 1 || stats.SplitsCarried != 2 {
		t.Errorf("cycle after the rewrite: %+v, want the rewritten split extracted, 2 carried", stats)
	}
	if got, _, err = m.QueryCtx(context.Background(), sql); err != nil || got.String() != want.String() {
		t.Errorf("wrong rows from the generation built after the rewrite (err %v)", err)
	}
}

// malformedFixture is a one-column table whose second split holds a document
// that is well-formed up to "b" and broken after it.
func malformedFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t)
	if err := f.wh.CreateTable("mydb", "m", orc.Schema{Columns: []orc.Column{{Name: "doc", Type: datum.TypeString}}}); err != nil {
		t.Fatal(err)
	}
	for _, docs := range [][]string{
		{`{"a":1,"b":2,"c":3}`, `{"a":4,"b":5,"c":6}`},
		{`{"a":7,"b":8,"c":9}`, `{"a":10,"b":11,"c":}`, `{"a":12,"b":13,"c":14}`},
	} {
		var rows [][]datum.Datum
		for _, d := range docs {
			rows = append(rows, []datum.Datum{datum.Str(d)})
		}
		if _, err := f.wh.AppendRows("mydb", "m", rows); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestMalformedDocumentBreaksTheCarry: after a syntax error every path of the
// set being extracted reads NULL, so what "$.a" yields for the broken
// document depends on whether "$.c" is extracted with it. A split carried
// column by column would keep the value "$.a" had alone; the kernel notices
// the error while extracting "$.c" and builds the split from the raw file
// instead, as a from-scratch populate does.
func TestMalformedDocumentBreaksTheCarry(t *testing.T) {
	sel := func(paths ...string) []*PathProfile { return selectionOf("m", "doc", paths...) }

	f := malformedFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	first, err := m.CacheSelected(context.Background(), sel("$.a"))
	if err != nil {
		t.Fatal(err)
	}
	if first.ParseErrors != 0 {
		t.Fatalf("extracting $.a alone met %d parse errors; the fixture wants the early exit to miss the damage", first.ParseErrors)
	}
	stats, err := m.CacheSelected(context.Background(), sel("$.a", "$.c"))
	if err != nil {
		t.Fatal(err)
	}
	ref := malformedFixture(t)
	refM := New(ref.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	fresh, err := refM.CacheSelected(context.Background(), sel("$.a", "$.c"))
	if err != nil {
		t.Fatal(err)
	}
	got, want := cachePartsOf(t, f, m, "m"), cachePartsOf(t, ref, refM, "m")
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("split %d differs from a from-scratch populate", i)
		}
	}
	if stats.SplitsRewritten != 1 || stats.SplitsExtracted != 1 || stats.ParseErrors != fresh.ParseErrors || fresh.ParseErrors != 1 {
		t.Errorf("stats %+v (from scratch: %+v); want the clean split rewritten, the broken one extracted, one parse error", stats, fresh)
	}

	// The broken split filed no provenance: it is extracted every night.
	again, err := m.CacheSelected(context.Background(), sel("$.a", "$.c"))
	if err != nil {
		t.Fatal(err)
	}
	if again.SplitsCarried != 1 || again.SplitsExtracted != 1 {
		t.Errorf("next cycle: %+v, want the clean split carried and the broken one extracted", again)
	}
}

// TestGenerationStress reads through the planner from several goroutines
// while cycles link, commit and drop behind them: a query planned on
// generation N-1 keeps reading its files — whose bytes generation N shares —
// while cycle N commits and cycle N+1 deletes N-1's names.
func TestGenerationStress(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sels := [][]*PathProfile{
		selection("$.item_id", "$.turnover", "$.item_name"),
		selection("$.item_id", "$.turnover", "$.item_name"),
		selection("$.turnover", "$.item_name"),
		selection("$.turnover", "$.item_name", "$.price"),
	}
	if _, err := m.CacheSelected(context.Background(), sels[0]); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT get_json_object(sale_logs, '$.turnover') tv, get_json_object(sale_logs, '$.item_name') n FROM mydb.t ORDER BY date`,
		`SELECT date, get_json_object(sale_logs, '$.price') p FROM mydb.t WHERE get_json_object(sale_logs, '$.item_id') > 12 ORDER BY date`,
	}
	plain := sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb"))
	want := make([]string, len(queries))
	for i, sql := range queries {
		rs, _, err := plain.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs.String()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := i % len(queries)
				rs, _, err := m.QueryCtx(ctx, queries[q])
				if err != nil {
					t.Errorf("query during cycles: %v", err)
					return
				}
				if rs.String() != want[q] {
					t.Errorf("wrong rows during cycles:\ngot  %s\nwant %s", rs.String(), want[q])
					return
				}
			}
		}(w)
	}
	carried := 0
	for cycle := 1; cycle <= 40; cycle++ {
		stats, err := m.CacheSelected(context.Background(), sels[cycle%len(sels)])
		if err != nil {
			t.Errorf("cycle %d: %v", cycle, err)
			break
		}
		carried += stats.SplitsCarried + stats.SplitsRewritten
		if err := m.Cacher.VerifyAlignment("mydb", "t"); err != nil {
			t.Errorf("cycle %d: %v", cycle, err)
		}
	}
	close(stop)
	wg.Wait()
	if carried == 0 {
		t.Error("no cycle carried anything; the stress exercised no link")
	}
	if tables := f.wh.ListTables(CacheDB); len(tables) > 2 {
		t.Errorf("%d cache tables alive, want at most the serving and the retired generation: %v", len(tables), tables)
	}
}
