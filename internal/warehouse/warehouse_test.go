package warehouse

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/orc"
	"repro/internal/simtime"
)

var saleSchema = orc.Schema{Columns: []orc.Column{
	{Name: "mall_id", Type: datum.TypeString},
	{Name: "date", Type: datum.TypeString},
	{Name: "sale_logs", Type: datum.TypeString},
}}

func newTestWarehouse() (*Warehouse, *simtime.Sim) {
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New(dfs.WithClock(clock))
	return New(fs, WithClock(clock)), clock
}

func saleRows(n int, date string) [][]datum.Datum {
	rows := make([][]datum.Datum, n)
	for i := range rows {
		rows[i] = []datum.Datum{
			datum.Str("0001"),
			datum.Str(date),
			datum.Str(fmt.Sprintf(`{"item_id":%d,"item_name":"item-%d","turnover":%d}`, i, i, i*10)),
		}
	}
	return rows
}

func TestCreateAndDescribe(t *testing.T) {
	w, _ := newTestWarehouse()
	if err := w.CreateTable("mydb", "t", saleSchema); !errors.Is(err, ErrNoSuchDatabase) {
		t.Errorf("CreateTable without database error = %v", err)
	}
	w.CreateDatabase("mydb")
	if err := w.CreateTable("mydb", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateTable("mydb", "t", saleSchema); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate CreateTable error = %v", err)
	}
	if !w.TableExists("mydb", "t") || w.TableExists("mydb", "nope") {
		t.Error("TableExists wrong")
	}
	info, err := w.Table("mydb", "t")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumRows != 0 || len(info.Files) != 0 {
		t.Errorf("fresh table info = %+v", info)
	}
	if _, err := w.Table("mydb", "nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table error = %v", err)
	}
}

func TestAppendAndRead(t *testing.T) {
	w, clock := newTestWarehouse()
	w.CreateDatabase("mydb")
	if err := w.CreateTable("mydb", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRows("mydb", "t", saleRows(10, "20190101")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(24 * time.Hour)
	p2, err := w.AppendRows("mydb", "t", saleRows(5, "20190102"))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := w.Table("mydb", "t")
	if info.NumRows != 15 || len(info.Files) != 2 {
		t.Fatalf("info = %+v", info)
	}
	if info.Files[1] != p2 {
		t.Errorf("file order: %v", info.Files)
	}
	rows, err := w.ReadAll("mydb", "t", []string{"date", "sale_logs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 || rows[0][0].S != "20190101" || rows[14][0].S != "20190102" {
		t.Errorf("ReadAll wrong: %d rows", len(rows))
	}
}

// TestRewriteFileBumpsModTime: a rewrite gives the part a new version, which
// is how anything derived from the old content learns it is gone.
func TestRewriteFileBumpsModTime(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	p, err := w.AppendRows("db", "t", saleRows(3, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := w.Table("db", "t")
	if err := w.RewriteFile("db", "t", p, saleRows(4, "20190101")); err != nil {
		t.Fatal(err)
	}
	info, _ := w.Table("db", "t")
	if info.Versions[0] <= before.Versions[0] {
		t.Errorf("part version %d after the rewrite, was %d", info.Versions[0], before.Versions[0])
	}
	if info.NumRows != 4 {
		t.Errorf("rows after rewrite = %d", info.NumRows)
	}
	if err := w.RewriteFile("db", "t", "/elsewhere/f", nil); err == nil {
		t.Error("RewriteFile outside table dir should error")
	}
	if err := w.RewriteFile("db", "t", info.Dir+"/missing.orc", nil); err == nil {
		t.Error("RewriteFile of missing part should error")
	}
}

func TestDropTable(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRows("db", "t", saleRows(2, "20190101")); err != nil {
		t.Fatal(err)
	}
	info, _ := w.Table("db", "t")
	if err := w.DropTable("db", "t"); err != nil {
		t.Fatal(err)
	}
	if w.TableExists("db", "t") {
		t.Error("table still exists after drop")
	}
	if w.FS().Exists(info.Files[0]) {
		t.Error("part file survived DropTable")
	}
	if err := w.DropTable("db", "t"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("double drop error = %v", err)
	}
}

func TestListTables(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := w.CreateTable("db", name, saleSchema); err != nil {
			t.Fatal(err)
		}
	}
	got := w.ListTables("db")
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ListTables = %v", got)
		}
	}
	if len(w.ListTables("empty")) != 0 {
		t.Error("unknown db should list nothing")
	}
}

func TestTotalBytes(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRows("db", "t", saleRows(100, "20190101")); err != nil {
		t.Fatal(err)
	}
	n, err := w.TotalBytes("db", "t")
	if err != nil || n <= 0 {
		t.Errorf("TotalBytes = %d err=%v", n, err)
	}
}

func TestSplitOrderStableAcrossAppends(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 0; i < 12; i++ {
		p, err := w.AppendRows("db", "t", saleRows(1, fmt.Sprintf("201901%02d", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	info, _ := w.Table("db", "t")
	for i := range paths {
		if info.Files[i] != paths[i] {
			t.Fatalf("file %d out of order: %s vs %s (zero-padded part names must sort numerically)", i, info.Files[i], paths[i])
		}
	}
}

func TestAccessorsAndOptions(t *testing.T) {
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New(dfs.WithClock(clock))
	opts := orc.WriterOptions{RowGroupRows: 123}
	w := New(fs, WithClock(clock), WithWriterOptions(opts))
	if w.Clock() != clock {
		t.Error("Clock accessor wrong")
	}
	if w.WriterOptions().RowGroupRows != 123 {
		t.Error("WriterOptions accessor wrong")
	}
	if w.FS() != fs {
		t.Error("FS accessor wrong")
	}
}

// TestRewriteAndCreatedTimes pins the version facts the Value Combiner's
// cache validity rests on: TableInfo.Versions is the listing's, an append
// leaves the existing parts' versions alone, a rewrite moves only the
// rewritten part's, and a dropped and recreated table's parts never reuse a
// version, even under the same names.
func TestRewriteAndCreatedTimes(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	versions := func() []uint64 {
		t.Helper()
		info, err := w.Table("db", "t")
		if err != nil {
			t.Fatal(err)
		}
		parts, err := w.Parts("db", "t")
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != len(info.Files) || len(info.Versions) != len(info.Files) {
			t.Fatalf("%d parts listed, TableInfo has %d files and %d versions", len(parts), len(info.Files), len(info.Versions))
		}
		for i, p := range parts {
			if info.Files[i] != p.Name || info.Versions[i] != p.Version {
				t.Errorf("TableInfo split %d is %s@%d, the listing %s@%d", i, info.Files[i], info.Versions[i], p.Name, p.Version)
			}
		}
		return info.Versions
	}
	p, err := w.AppendRows("db", "t", saleRows(2, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	first := versions()
	if _, err := w.AppendRows("db", "t", saleRows(2, "20190102")); err != nil {
		t.Fatal(err)
	}
	appended := versions()
	if len(appended) != 2 || appended[0] != first[0] {
		t.Errorf("versions after an append = %v, were %v", appended, first)
	}
	if err := w.RewriteFile("db", "t", p, saleRows(2, "20190101")); err != nil {
		t.Fatal(err)
	}
	rewritten := versions()
	if rewritten[0] <= appended[1] || rewritten[1] != appended[1] {
		t.Errorf("versions after rewriting part 0 = %v, were %v", rewritten, appended)
	}
	// OpenFile works on part files.
	r, err := w.OpenFile(p)
	if err != nil || r.NumRows() != 2 {
		t.Errorf("OpenFile: rows=%v err=%v", r, err)
	}

	seen := map[uint64]bool{}
	for _, v := range append(append(first, appended...), rewritten...) {
		seen[v] = true
	}
	if err := w.DropTable("db", "t"); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.AppendRows("db", "t", saleRows(2, "20190101")); err != nil {
			t.Fatal(err)
		}
	}
	info, _ := w.Table("db", "t")
	for i, v := range versions() {
		if seen[v] {
			t.Errorf("recreated table's %s reuses version %d", info.Files[i], v)
		}
	}
	if info.Files[0] != p {
		t.Errorf("recreated table's first part is %s, want the old name %s", info.Files[0], p)
	}
}

// footerCount reports how many footers the metastore holds for tables whose
// name starts with prefix, and how many directories it still indexes.
func footerCount(w *Warehouse, prefix string) (footers, dirs int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, tm := range w.tables {
		if strings.HasPrefix(tm.name, prefix) {
			footers += len(tm.footers)
		}
	}
	for dir := range w.byDir {
		if strings.Contains(dir, "/"+prefix) {
			dirs++
		}
	}
	return footers, dirs
}

func stringsOf(t *testing.T, r *orc.Reader, column string) []string {
	t.Helper()
	col, err := r.ReadColumn(column, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(col))
	for i, d := range col {
		out[i] = d.S
	}
	return out
}

// Table() answers from the metastore: no open and no byte read, however
// many part files the table has. Opens cost one dfs open and the file's
// length each, and share one footer per file version.
func TestTableReadsNoFile(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 0; i < 5; i++ {
		p, err := w.AppendRows("db", "t", saleRows(i+1, "20190101"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	w.FS().ResetStats()
	info, err := w.Table("db", "t")
	if err != nil {
		t.Fatal(err)
	}
	total, err := w.TotalBytes("db", "t")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumRows != 15 || len(info.Files) != 5 || info.Bytes != total || total == 0 {
		t.Errorf("info = %d rows, %d files, %d bytes (TotalBytes %d)", info.NumRows, len(info.Files), info.Bytes, total)
	}
	if st := w.FS().Stats(); st.Opens != 0 || st.BytesRead != 0 {
		t.Errorf("Table+TotalBytes did dfs reads: %+v", st)
	}

	a, err := w.OpenFile(paths[4])
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.OpenFile(paths[4])
	if err != nil {
		t.Fatal(err)
	}
	size, _ := w.FS().Size(paths[4])
	if st := w.FS().Stats(); st.Opens != 2 || st.BytesRead != 2*size {
		t.Errorf("two opens cost %+v, want 2 opens of %d bytes", st, size)
	}
	if a == b || a.Footer != b.Footer {
		t.Error("opens of one file version must be distinct Readers over one shared footer")
	}
}

// A reader opened before a rewrite keeps reading the old rows (its view and
// footer belong to the old version); the next open sees the new bytes and a
// footer parsed from them, and Table() follows without reading.
func TestRewriteGivesNewVersionAndFooter(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	p, err := w.AppendRows("db", "t", saleRows(3, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	old, err := w.OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RewriteFile("db", "t", p, saleRows(5, "20190202")); err != nil {
		t.Fatal(err)
	}
	if got := stringsOf(t, old, "date"); len(got) != 3 || got[0] != "20190101" {
		t.Errorf("reader opened before the rewrite now reads %v", got)
	}
	fresh, err := w.OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := stringsOf(t, fresh, "date"); len(got) != 5 || got[0] != "20190202" {
		t.Errorf("open after the rewrite reads %v", got)
	}
	if fresh.Footer == old.Footer || fresh.NumRows() != 5 || old.NumRows() != 3 {
		t.Errorf("footers: old %d rows, fresh %d rows, shared=%v", old.NumRows(), fresh.NumRows(), fresh.Footer == old.Footer)
	}
	w.FS().ResetStats()
	if info, _ := w.Table("db", "t"); info.NumRows != 5 {
		t.Errorf("Table after rewrite = %d rows, want 5", info.NumRows)
	}
	if st := w.FS().Stats(); st.Opens != 0 {
		t.Errorf("Table after rewrite read files: %+v", st)
	}
}

// A part file replaced behind the metastore's back (tests and chaos do it
// through the dfs) is noticed by its version: the kept footer is not used,
// the file is read once, and the new footer is kept from then on.
func TestOutOfBandWriteIsNoticed(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	p, err := w.AppendRows("db", "t", saleRows(3, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := orc.WriteRows(saleSchema, saleRows(7, "20190303"), orc.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.FS().WriteFile(p, other); err != nil {
		t.Fatal(err)
	}
	w.FS().ResetStats()
	for i := 0; i < 3; i++ {
		if info, _ := w.Table("db", "t"); info.NumRows != 7 {
			t.Fatalf("Table = %d rows after out-of-band write, want 7", info.NumRows)
		}
	}
	if st := w.FS().Stats(); st.Opens != 1 {
		t.Errorf("%d opens for three Table() calls, want one (first sight of the new version)", st.Opens)
	}
	if err := w.FS().WriteFile(p, []byte("not an orc file")); err != nil {
		t.Fatal(err)
	}
	if info, _ := w.Table("db", "t"); info.NumRows != 0 {
		t.Errorf("Table counts %d rows in a corrupt file", info.NumRows)
	}
	if _, err := w.OpenFile(p); !errors.Is(err, orc.ErrCorrupt) {
		t.Errorf("open of corrupt file = %v", err)
	}
}

// Faults on the read path never reach what is stored or kept: a corrupt or
// short read fails (or is retried) exactly as without kept footers, the
// footer in the metastore stays the good one, and the decode hook still
// fires per open.
func TestFaultsNeverReachStoredBytesOrFooters(t *testing.T) {
	w, _ := newTestWarehouse()
	w.SetRetrySleep(func(time.Duration) {})
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	p, err := w.AppendRows("db", "t", saleRows(4, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.FS().ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	good, err := w.OpenFile(p)
	if err != nil {
		t.Fatal(err)
	}

	inj := fault.New(3)
	w.FS().SetInjector(inj)
	// Short read: the tail magic is gone, validation must fail even though a
	// good footer for this version is on file.
	inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindShortRead, FailN: 1, Fraction: 0.5})
	if _, err := w.OpenFile(p); !errors.Is(err, orc.ErrCorrupt) {
		t.Errorf("short read open = %v, want ErrCorrupt", err)
	}
	// Corrupt reads: each one parses its own mangled copy. Whatever the flips
	// hit, the open must not hand back the kept footer.
	inj.Reset()
	inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindCorrupt, FailN: 20})
	for i := 0; i < 20; i++ {
		if r, err := w.OpenFile(p); err == nil && r.Footer == good.Footer {
			t.Fatal("a corrupted read was served the kept footer")
		}
	}
	// Transient errors are retried and then succeed on the kept footer.
	inj.Reset()
	inj.Add(fault.Rule{Op: fault.OpOpen, Kind: fault.KindError, FailN: 2, Transient: true})
	retries := 0
	w.SetRetryNotify(func() { retries++ })
	r, err := w.OpenFile(p)
	if err != nil || retries != 2 || r.Footer != good.Footer {
		t.Errorf("transient open: err=%v retries=%d sharedFooter=%v", err, retries, err == nil && r.Footer == good.Footer)
	}
	// Decode faults are per open: this reader fails mid-stream, the next
	// open of the same version decodes cleanly.
	inj.Reset()
	inj.Add(fault.Rule{Op: fault.OpDecode, Kind: fault.KindError, FailN: 1})
	if r, err = w.OpenFile(p); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadColumn("date", nil); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("decode fault = %v", err)
	}
	if r, err = w.OpenFile(p); err != nil {
		t.Fatal(err)
	}
	if got := stringsOf(t, r, "date"); len(got) != 4 {
		t.Errorf("clean open after decode fault read %v", got)
	}

	w.FS().SetInjector(nil)
	if got, _ := w.FS().ReadFile(p); !bytes.Equal(got, want) {
		t.Error("stored bytes changed under injection")
	}
	if r, err = w.OpenFile(p); err != nil || r.Footer != good.Footer || r.NumRows() != 4 {
		t.Errorf("after the faults: err=%v, kept footer replaced=%v", err, err == nil && r.Footer != good.Footer)
	}
	if got := stringsOf(t, good, "date"); len(got) != 4 || got[3] != "20190101" {
		t.Errorf("reader opened before the faults reads %v", got)
	}
}

// Dropping a table releases its footers: a retired cache generation must not
// stay pinned by the metastore (and a late open of a dropped table's file
// must not bring an entry back).
func TestDropTableReleasesFooters(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("cache")
	for gen := 1; gen <= 3; gen++ {
		name := fmt.Sprintf("sales__g%03d", gen)
		if err := w.CreateTable("cache", name, saleSchema); err != nil {
			t.Fatal(err)
		}
		var last string
		for i := 0; i < 4; i++ {
			p, err := w.AppendRows("cache", name, saleRows(2, "20190101"))
			if err != nil {
				t.Fatal(err)
			}
			last = p
		}
		if footers, dirs := footerCount(w, "sales__g"); footers != 4 || dirs != 1 {
			t.Fatalf("generation %d live: %d footers in %d dirs, want 4 in 1", gen, footers, dirs)
		}
		if err := w.DropTable("cache", name); err != nil {
			t.Fatal(err)
		}
		if _, err := w.OpenFile(last); !errors.Is(err, dfs.ErrNotFound) {
			t.Errorf("open of dropped table's file = %v", err)
		}
		if footers, dirs := footerCount(w, "sales__g"); footers != 0 || dirs != 0 {
			t.Fatalf("generation %d dropped: %d footers in %d dirs survive", gen, footers, dirs)
		}
	}
}

// Many goroutines open and decode one file while another rewrites it; run
// with -race. Every reader must see one version's rows, whole.
func TestConcurrentOpensOfOneFile(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	p, err := w.AppendRows("db", "t", saleRows(3, "v"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r, err := w.OpenFile(p)
				if err != nil {
					t.Error(err)
					return
				}
				col, err := r.ReadColumn("date", nil)
				if err != nil {
					t.Error(err)
					return
				}
				// saleRows(n, "v") writes n rows: the row count names the version.
				if int64(len(col)) != r.NumRows() || len(col) < 3 || len(col) > 5 {
					t.Errorf("reader saw %d rows, footer says %d", len(col), r.NumRows())
					return
				}
				if info, err := w.Table("db", "t"); err != nil || info.NumRows < 3 || info.NumRows > 5 {
					t.Errorf("Table = %+v err=%v", info, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := w.RewriteFile("db", "t", p, saleRows(3+i%3, "v")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestLinkPartSharesBytesAndFooter: a linked part is the next part of its
// table, reads no file, shares the source's stored bytes and kept footer, and
// outlives the table it was linked from.
func TestLinkPartSharesBytesAndFooter(t *testing.T) {
	w, clock := newTestWarehouse()
	w.CreateDatabase("db")
	for _, table := range []string{"g1", "g2"} {
		if err := w.CreateTable("db", table, saleSchema); err != nil {
			t.Fatal(err)
		}
	}
	src, err := w.AppendRows("db", "g1", saleRows(7, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRows("db", "g2", saleRows(2, "20190102")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	w.FS().ResetStats()
	part, err := w.LinkPart("db", "g2", src)
	if err != nil {
		t.Fatal(err)
	}
	if st := w.FS().Stats(); st.Opens != 0 || st.BytesRead != 0 || st.BytesWritten != 0 {
		t.Errorf("the link moved bytes: %+v", st)
	}
	info, err := w.Table("db", "g2")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := w.Parts("db", "g2")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[1] != part || info.Files[1] != part.Name || info.Versions[1] != part.Version ||
		!strings.HasSuffix(part.Name, "/g2/part-00001.orc") || info.NumRows != 9 {
		t.Errorf("after the link: parts %+v, %d rows; linked %+v", parts, info.NumRows, part)
	}
	if st := w.FS().Stats(); st.Opens != 0 {
		t.Errorf("Table() opened %d files: the link did not bring its footer", st.Opens)
	}
	a, av, err := w.OpenFileView(src)
	if err != nil {
		t.Fatal(err)
	}
	b, bv, err := w.OpenFileView(part.Name)
	if err != nil {
		t.Fatal(err)
	}
	if a.Footer != b.Footer || &av.Data[0] != &bv.Data[0] || !bv.Stored || bv.Version != part.Version || av.Version == bv.Version {
		t.Errorf("link and source: same footer %v, same bytes %v, versions %d and %d (linked as %d)",
			a.Footer == b.Footer, &av.Data[0] == &bv.Data[0], av.Version, bv.Version, part.Version)
	}

	want := stringsOf(t, a, "sale_logs")
	if err := w.DropTable("db", "g1"); err != nil {
		t.Fatal(err)
	}
	r, err := w.OpenFile(part.Name)
	if err != nil {
		t.Fatalf("the link died with the table it came from: %v", err)
	}
	if got := stringsOf(t, r, "sale_logs"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("linked part reads %v, want %v", got, want)
	}
}

// TestForeignPartsAreChecked: AppendEncoded and LinkPart accept only a part
// file with the table's schema, and a refused one leaves nothing behind.
func TestForeignPartsAreChecked(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	other := orc.Schema{Columns: []orc.Column{{Name: "x", Type: datum.TypeInt64}}}
	if err := w.CreateTable("db", "other", other); err != nil {
		t.Fatal(err)
	}
	foreign, err := w.AppendRows("db", "other", [][]datum.Datum{{datum.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}

	good, err := orc.WriteRows(saleSchema, saleRows(3, "20190101"), w.WriterOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := w.AppendEncoded("db", "t", good)
	if err != nil {
		t.Fatal(err)
	}
	if parts, _ := w.Parts("db", "t"); len(parts) != 1 || parts[0] != part || part.Size != int64(len(good)) {
		t.Errorf("AppendEncoded reported %+v; the table holds %+v", part, parts)
	}
	bad, err := orc.WriteRows(other, [][]datum.Datum{{datum.Int(1)}}, w.WriterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendEncoded("db", "t", bad); err == nil {
		t.Error("AppendEncoded took a part with another schema")
	}
	if _, err := w.AppendEncoded("db", "t", good[:len(good)/2]); err == nil {
		t.Error("AppendEncoded took half a part file")
	}
	if _, err := w.LinkPart("db", "t", foreign); err == nil {
		t.Error("LinkPart took a part with another schema")
	}
	if _, err := w.LinkPart("db", "t", "/warehouse/db/other/part-00099.orc"); !errors.Is(err, dfs.ErrNotFound) {
		t.Errorf("LinkPart of a missing file: %v", err)
	}
	if _, err := w.LinkPart("db", "nope", foreign); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("LinkPart into a missing table: %v", err)
	}
	if info, _ := w.Table("db", "t"); len(info.Files) != 1 {
		t.Errorf("refused parts left files behind: %v", info.Files)
	}
}

// TestLinkOfAnUnknownVersionParsesItsOwnFooter: when the metastore's footer is
// not of the bytes that were linked (written behind its back), the link's
// footer comes from the link, not from the stale entry.
func TestLinkOfAnUnknownVersionParsesItsOwnFooter(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	for _, table := range []string{"a", "b"} {
		if err := w.CreateTable("db", table, saleSchema); err != nil {
			t.Fatal(err)
		}
	}
	src, err := w.AppendRows("db", "a", saleRows(4, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	behind, err := orc.WriteRows(saleSchema, saleRows(9, "20190109"), w.WriterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.FS().WriteFile(src, behind); err != nil {
		t.Fatal(err)
	}
	part, err := w.LinkPart("db", "b", src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.OpenFile(part.Name)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 9 {
		t.Errorf("the link reads %d rows through a stale footer, want 9", r.NumRows())
	}
}

// Table() on an unchanged file system is a lookup: the same *TableInfo every
// time, nothing listed, nothing allocated. (It was 22 listings per cached
// query: the planner's, and two per split from the combined scan factory.)
func TestTableAllocsNothingWhileUnchanged(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AppendRows("db", "t", saleRows(2, "20190101")); err != nil {
			t.Fatal(err)
		}
	}
	first, err := w.Table("db", "t")
	if err != nil || len(first.Files) != 3 || first.NumRows != 6 {
		t.Fatalf("Table = %+v, %v", first, err)
	}
	var got *TableInfo
	if n := testing.AllocsPerRun(100, func() { got, _ = w.Table("db", "t") }); n != 0 {
		t.Errorf("Table() on an unchanged file system allocates %v times, want 0", n)
	}
	if got != first {
		t.Error("Table() on an unchanged file system built a new TableInfo")
	}
}

// The kept TableInfo is served only while nothing on the file system changed:
// every way a table's files can change — through the warehouse or behind its
// back — shows in the next Table(), which is then kept in turn. A listing
// whose row count is incomplete because a part could not be opened is never
// kept, so a passing fault is not remembered.
func TestTableSeesEveryChange(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	for _, name := range []string{"t", "src"} {
		if err := w.CreateTable("db", name, saleSchema); err != nil {
			t.Fatal(err)
		}
	}
	src, err := w.AppendRows("db", "src", saleRows(5, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := orc.WriteRows(saleSchema, saleRows(4, "20190102"), w.WriterOptions())
	if err != nil {
		t.Fatal(err)
	}
	var first string
	foreign := "/warehouse/db/t/part-90000.orc"
	steps := []struct {
		name        string
		do          func() error
		files, rows int64
	}{
		{"AppendRows", func() (err error) { first, err = w.AppendRows("db", "t", saleRows(3, "20190101")); return }, 1, 3},
		{"AppendEncoded", func() error { _, err := w.AppendEncoded("db", "t", encoded); return err }, 2, 7},
		{"LinkPart", func() error { _, err := w.LinkPart("db", "t", src); return err }, 3, 12},
		{"RewriteFile", func() error { return w.RewriteFile("db", "t", first, saleRows(1, "20190101")) }, 3, 10},
		{"a part written through dfs", func() error { return w.FS().WriteFile(foreign, encoded) }, 4, 14},
		{"a part deleted through dfs", func() error { return w.FS().Delete(foreign) }, 3, 10},
		{"a change to another table", func() error { _, err := w.AppendRows("db", "src", saleRows(1, "20190102")); return err }, 3, 10},
		{"DropTable+CreateTable", func() error {
			if err := w.DropTable("db", "t"); err != nil {
				return err
			}
			return w.CreateTable("db", "t", saleSchema)
		}, 0, 0},
	}
	prev, err := w.Table("db", "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		info, err := w.Table("db", "t")
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if info == prev || int64(len(info.Files)) != s.files || info.NumRows != s.rows {
			t.Errorf("after %s: same TableInfo %v, %d files and %d rows, want a new one with %d and %d",
				s.name, info == prev, len(info.Files), info.NumRows, s.files, s.rows)
		}
		if again, _ := w.Table("db", "t"); again != info {
			t.Errorf("after %s: the new TableInfo was not kept", s.name)
		}
		prev = info
	}

	// A part the metastore has no footer for, unreadable for now.
	if err := w.FS().WriteFile(foreign, encoded); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1)
	inj.Add(fault.Rule{Pattern: foreign, Op: fault.OpOpen, Kind: fault.KindError})
	w.FS().SetInjector(inj)
	failed, err := w.Table("db", "t")
	if err != nil || len(failed.Files) != 1 || failed.NumRows != 0 {
		t.Fatalf("Table with an unreadable part = %+v, %v", failed, err)
	}
	if again, _ := w.Table("db", "t"); again == failed {
		t.Error("a TableInfo missing an unreadable part's rows was kept")
	}
	w.FS().SetInjector(nil)
	healed, err := w.Table("db", "t")
	if err != nil || healed.NumRows != 4 {
		t.Fatalf("Table after the fault = %+v, %v", healed, err)
	}
	if again, _ := w.Table("db", "t"); again != healed {
		t.Error("the complete TableInfo was not kept")
	}
}

// Readers call Table() while a writer appends; run with -race. Whatever a
// reader gets is one listing, whole (two rows per file it names), never goes
// backwards, and the first call after the last append sees every part.
func TestTableConcurrentWithAppends(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	const parts = 40
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				info, err := w.Table("db", "t")
				if err != nil {
					t.Error(err)
					return
				}
				if info.NumRows != int64(2*len(info.Files)) || len(info.Files) < seen {
					t.Errorf("Table = %d files (after %d), %d rows", len(info.Files), seen, info.NumRows)
					return
				}
				seen = len(info.Files)
			}
		}()
	}
	for i := 0; i < parts; i++ {
		if _, err := w.AppendRows("db", "t", saleRows(2, "20190101")); err != nil {
			t.Fatal(err)
		}
	}
	if info, err := w.Table("db", "t"); err != nil || len(info.Files) != parts {
		t.Errorf("Table after the last append = %d files, %v; want %d", len(info.Files), err, parts)
	}
	close(done)
	wg.Wait()
}

// TestAppendNotifyFiresOnlyForAppendRows: the append callback sees each part
// AppendRows stores, once and after it is readable, and nothing any other
// write door stores.
func TestAppendNotifyFiresOnlyForAppendRows(t *testing.T) {
	w, _ := newTestWarehouse()
	w.CreateDatabase("mydb")
	for _, table := range []string{"t", "u"} {
		if err := w.CreateTable("mydb", table, saleSchema); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	w.SetAppendNotify(func(db, table string, part dfs.FileInfo) {
		r, view, err := w.OpenFileView(part.Name)
		if err != nil || view.Version != part.Version || int64(len(view.Data)) != part.Size || r.NumRows() != 2 {
			t.Errorf("notified of %+v, which reads %v (version %d, %d rows)", part, err, view.Version, r.NumRows())
		}
		seen = append(seen, db+"."+table+" "+part.Name)
	})
	path, err := w.AppendRows("mydb", "t", saleRows(2, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"mydb.t " + path}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("notified %v, want %v", seen, want)
	}

	data, err := orc.WriteRows(saleSchema, saleRows(2, "20190102"), w.WriterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendEncoded("mydb", "t", data); err != nil {
		t.Fatal(err)
	}
	if _, err := w.LinkPart("mydb", "u", path); err != nil {
		t.Fatal(err)
	}
	if err := w.RewriteFile("mydb", "t", path, saleRows(2, "20190103")); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Errorf("notified %v; only AppendRows notifies", seen)
	}

	// A refused or failed append notifies nothing, and neither does a
	// cleared callback.
	if _, err := w.AppendRows("mydb", "nope", saleRows(2, "20190104")); err == nil {
		t.Fatal("appended to a table that does not exist")
	}
	w.FS().SetInjector(fault.New(1).Add(fault.Rule{Op: fault.OpAppend, Kind: fault.KindError}))
	if _, err := w.AppendRows("mydb", "t", saleRows(2, "20190104")); err == nil {
		t.Fatal("the faulted write succeeded")
	}
	w.FS().SetInjector(nil)
	w.SetAppendNotify(nil)
	if _, err := w.AppendRows("mydb", "t", saleRows(2, "20190105")); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Errorf("notified %v after a refused append and a cleared callback", seen)
	}
}
