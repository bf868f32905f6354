package warehouse

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/datum"
	"repro/internal/fault"
	"repro/internal/orc"
)

// String values read through a warehouse reader are views of the dfs bytes
// the reader was opened over (orc's decoder.view). These tests hold the two
// dfs rules that makes safe — a stored byte is never written again, a
// faulted read is never the stored bytes — at the level a query sees them:
// datums.

var saleCols = []string{"mall_id", "date", "sale_logs"}

// inside reports whether s lies wholly within data's memory.
func inside(s string, data []byte) bool {
	if len(s) == 0 || len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(&data[0]))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(data))
}

// render copies every value of rows into one fresh string.
func render(rows [][]datum.Datum) string {
	var sb strings.Builder
	for _, row := range rows {
		for _, d := range row {
			fmt.Fprintf(&sb, "%v:%q|", d.Null, d.S)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// readBatch reads up to n rows from cur into fresh vectors and returns them
// row-major; the datums are exactly what the cursor wrote, views included.
func readBatch(t *testing.T, cur *orc.Cursor, n int) [][]datum.Datum {
	t.Helper()
	vecs := make([][]datum.Datum, len(saleCols))
	for i := range vecs {
		vecs[i] = make([]datum.Datum, n)
	}
	got, err := cur.NextBatch(vecs, n)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]datum.Datum, got)
	for r := range rows {
		rows[r] = []datum.Datum{vecs[0][r], vecs[1][r], vecs[2][r]}
	}
	return rows
}

// TestValuesSurviveEveryMutation is dfs's TestViewSurvivesEveryMutation one
// level up: datums read from a cursor — and the rows the same cursor reads
// afterwards — are unchanged by anything that then happens to the path.
func TestValuesSurviveEveryMutation(t *testing.T) {
	mutations := map[string]func(w *Warehouse, path string) error{
		"writefile": func(w *Warehouse, path string) error {
			return w.FS().WriteFile(path, bytes.Repeat([]byte("overwritten "), 400))
		},
		"append": func(w *Warehouse, path string) error {
			return w.FS().Append(path, bytes.Repeat([]byte("appended "), 400))
		},
		"rename-over": func(w *Warehouse, path string) error {
			if err := w.FS().WriteFile(path+".tmp", bytes.Repeat([]byte("renamed "), 400)); err != nil {
				return err
			}
			return w.FS().Rename(path+".tmp", path)
		},
		"rewritefile": func(w *Warehouse, path string) error {
			return w.RewriteFile("db", "t", path, saleRows(70, "20200202"))
		},
		"droptable": func(w *Warehouse, path string) error { return w.DropTable("db", "t") },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			w, _ := newTestWarehouse()
			w.CreateDatabase("db")
			if err := w.CreateTable("db", "t", saleSchema); err != nil {
				t.Fatal(err)
			}
			written := saleRows(60, "20190101")
			path, err := w.AppendRows("db", "t", written)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := w.FS().ReadView(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := w.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := r.NewCursor(saleCols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			held := readBatch(t, cur, 25)
			if len(held) != 25 || !inside(held[3][2].S, stored.Data) {
				t.Fatalf("read %d rows; values are views of the stored bytes: %v", len(held), inside(held[3][2].S, stored.Data))
			}
			before := render(held)
			if before != render(written[:25]) {
				t.Fatal("first batch differs from the rows written")
			}

			if err := mutate(w, path); err != nil {
				t.Fatal(err)
			}

			if after := render(held); after != before {
				t.Errorf("datums read before %s changed under it:\nbefore %s\nafter  %s", name, before, after)
			}
			rest := readBatch(t, cur, 100)
			if render(rest) != render(written[25:]) {
				t.Errorf("the cursor opened before %s read %d rows that are not the rest of its version", name, len(rest))
			}
		})
	}
}

// TestValuesSurviveConcurrentRewrites runs the same property under the race
// detector: one goroutine keeps appending to and rewriting a part file while
// another reads it and keeps the datums. Every set of rows read is wholly
// one version's, and still reads the same when the writer is done. A write
// into bytes a view covers would be a data race with the reads here.
func TestValuesSurviveConcurrentRewrites(t *testing.T) {
	w, _ := newTestWarehouse()
	w.SetRetrySleep(func(time.Duration) {})
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	versions := [][][]datum.Datum{saleRows(40, "20190101"), saleRows(55, "20190202")}
	valid := map[string]bool{render(versions[0]): true, render(versions[1]): true}
	path, err := w.AppendRows("db", "t", versions[0])
	if err != nil {
		t.Fatal(err)
	}

	// The writer runs for as long as the reader reads, so they overlap
	// however the scheduler treats them.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The append grows the stored slice in place when it has room:
			// the case where new bytes land right behind a live view.
			if err := w.FS().Append(path, []byte("junk behind the tail magic")); err != nil {
				t.Error(err)
				return
			}
			if err := w.RewriteFile("db", "t", path, versions[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	type reading struct {
		rows [][]datum.Datum
		text string
	}
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }); wg.Wait() }
	defer halt()
	var kept []reading
	for len(kept) < 100 {
		r, err := w.OpenFile(path)
		if err != nil {
			if !errors.Is(err, orc.ErrCorrupt) { // caught between the append and the rewrite
				t.Fatal(err)
			}
			continue
		}
		cur, err := r.NewCursor(saleCols, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := readBatch(t, cur, 100)
		text := render(rows)
		if !valid[text] {
			t.Fatalf("read %d rows that are no version ever written", len(rows))
		}
		kept = append(kept, reading{rows, text})
	}
	halt()
	for i, k := range kept {
		if render(k.rows) != k.text {
			t.Fatalf("reading %d changed after it was taken", i)
		}
	}
}

// TestFaultedReadsNeverAliasStoredBytes: under seeded corrupt-read rules the
// reader works on the injector's private copy, so no string it decodes
// points into the stored bytes (a mangled value served from there would be
// indistinguishable from a stored one); a short read fails validation before
// any value is decoded; and the stored bytes are what they were.
func TestFaultedReadsNeverAliasStoredBytes(t *testing.T) {
	w, _ := newTestWarehouse()
	w.SetRetrySleep(func(time.Duration) {})
	w.CreateDatabase("db")
	if err := w.CreateTable("db", "t", saleSchema); err != nil {
		t.Fatal(err)
	}
	path, err := w.AppendRows("db", "t", saleRows(80, "20190101"))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := w.FS().ReadView(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), stored.Data...)

	for _, seed := range []int64{1, 2, 3} {
		inj := fault.New(seed)
		w.FS().SetInjector(inj)
		inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindCorrupt, FailN: 1 << 30})
		opened, values := 0, 0
		for i := 0; i < 200; i++ {
			r, err := w.OpenFile(path)
			if err != nil {
				if !errors.Is(err, orc.ErrCorrupt) {
					t.Fatalf("corrupt read open = %v", err)
				}
				continue
			}
			opened++
			cur, err := r.NewCursor(saleCols, nil, nil)
			if err != nil {
				continue // a flip hit a column name
			}
			vecs := make([][]datum.Datum, len(saleCols))
			for c := range vecs {
				vecs[c] = make([]datum.Datum, 32)
			}
			for {
				n, err := cur.NextBatch(vecs, 32)
				for c := range vecs {
					for _, d := range vecs[c][:n] {
						if inside(d.S, stored.Data) {
							t.Fatalf("seed %d: a value decoded from a corrupted read points into the stored bytes", seed)
						}
						values++
					}
				}
				if err != nil && !errors.Is(err, orc.ErrCorrupt) {
					t.Fatalf("seed %d: decode of a corrupted read = %v", seed, err)
				}
				if err != nil || n == 0 {
					break
				}
			}
		}
		if opened == 0 || values == 0 {
			t.Errorf("seed %d: %d corrupted reads opened, %d values checked: the test saw nothing", seed, opened, values)
		}

		inj.Reset()
		inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindShortRead, FailN: 3, Fraction: 0.9})
		for i := 0; i < 3; i++ {
			if _, err := w.OpenFile(path); !errors.Is(err, orc.ErrCorrupt) {
				t.Errorf("seed %d: short read open = %v, want ErrCorrupt", seed, err)
			}
		}
	}

	w.FS().SetInjector(nil)
	if !bytes.Equal(stored.Data, want) {
		t.Error("stored bytes changed under injection")
	}
	after, err := w.FS().ReadView(path)
	if err != nil || !after.Stored || &after.Data[0] != &stored.Data[0] || after.Version != stored.Version {
		t.Errorf("after the faults the path serves other bytes: err=%v", err)
	}
}
