package orc

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/datum"
)

// fuzzSeeds are valid files that between them hold every type × encoding
// the writer emits (plain and RLE ints, floats, plain and dictionary
// strings, bit-packed bools), chunks with no NULLs, some and only NULLs,
// one-row groups, several stripes and no rows at all — plus the damaged
// files of corrupt_test.go (the zero-column file that claims rows among
// them), so mutation starts next to the known edges.
func fuzzSeeds(t testing.TB) map[string][]byte {
	write := func(rows [][]datum.Datum, opts WriterOptions) []byte {
		data, err := WriteRows(geomSchema, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return map[string][]byte{
		"valid-no-nulls":      write(geomRows(300, nullsNone, 1), WriterOptions{RowGroupRows: 64}),
		"valid-half-nulls":    write(geomRows(300, nullsHalf, 2), WriterOptions{RowGroupRows: 64}),
		"valid-all-nulls":     write(geomRows(40, nullsAll, 3), WriterOptions{RowGroupRows: 16}),
		"valid-multi-stripe":  write(goldenFileRows(), goldenFileOpts),
		"valid-one-row-group": write(geomRows(9, nullsHalf, 4), WriterOptions{RowGroupRows: 1}),
		"valid-empty":         write(nil, WriterOptions{}),
		"corrupt-string-length": oneChunkFile(t, datum.TypeString, 2, chunkOf(2, encPlain, func(e *encoder) {
			e.str("ok")
			e.uvarint(huge)
		})),
		"corrupt-rle-count": oneChunkFile(t, datum.TypeInt64, 3, chunkOf(3, encRLE, func(e *encoder) {
			e.uvarint(1)
			e.uvarint(huge)
			e.i64(7)
		})),
		"corrupt-rows-without-columns": zeroColumnFile(t, 1<<31-1),
		"corrupt-dict-size": oneChunkFile(t, datum.TypeString, 3, chunkOf(3, encDict, func(e *encoder) {
			e.uvarint(huge)
			e.str("a")
		})),
	}
}

// TestFuzzCorpusCommitted keeps testdata/fuzz/FuzzReader, which `go test`
// replays on every run, equal to fuzzSeeds; ORC_UPDATE_GOLDEN=1 rewrites it.
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReader")
	for name, data := range fuzzSeeds(t) {
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, name)
		if os.Getenv("ORC_UPDATE_GOLDEN") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != entry {
			t.Errorf("%s is stale: regenerate with ORC_UPDATE_GOLDEN=1", path)
		}
	}
}

// inside reports whether s lies wholly within data's memory.
func inside(s string, data []byte) bool {
	if len(s) == 0 {
		return true
	}
	if len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(&data[0]))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(data))
}

// FuzzReader opens arbitrary bytes and, when they parse, drains every column
// through NextBatch (two capacities) and through Next. Whatever the bytes:
// no panic; every string handed out is a view of the input, never of
// anything else; the three drains fail or succeed together; and when they
// succeed they return the same rows. The seed corpus is the committed
// testdata/fuzz/FuzzReader (see TestFuzzCorpusCommitted).
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(data)
		if err != nil {
			return
		}
		cols := make([]string, len(r.Schema().Columns))
		for i, c := range r.Schema().Columns {
			cols[i] = c.Name
		}
		drain := func(capacity int) ([][]datum.Datum, error) {
			cur, err := r.NewCursor(cols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var rows [][]datum.Datum
			if capacity == 0 {
				rows, err = drainNext(cur)
			} else {
				rows, err = drainBatch(cur, len(cols), capacity)
			}
			for _, row := range rows {
				for _, d := range row {
					if !inside(d.S, data) {
						t.Fatalf("string %q does not alias the input", d.S)
					}
				}
			}
			return rows, err
		}
		byRow, rowErr := drain(0)
		for _, capacity := range []int{3, 1024} {
			byBatch, batchErr := drain(capacity)
			if (rowErr == nil) != (batchErr == nil) {
				t.Fatalf("Next err = %v, NextBatch(cap %d) err = %v", rowErr, capacity, batchErr)
			}
			if rowErr == nil && renderRows(byRow) != renderRows(byBatch) {
				t.Fatalf("Next and NextBatch(cap %d) disagree:\n%s", capacity, lineDiff(renderRows(byRow), renderRows(byBatch)))
			}
		}
		if rowErr == nil && int64(len(byRow)) != r.NumRows() {
			t.Fatalf("clean drain returned %d rows of a file of %d", len(byRow), r.NumRows())
		}
	})
}
