package orc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
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

// writerCase is one file FuzzWriterMatchesReference writes: a schema, its
// rows and the options, drawn from the fuzz input.
type writerCase struct {
	schema  Schema
	rows    [][]datum.Datum
	opts    WriterOptions
	byBatch int // 0: AppendRow per row; else AppendColumns in batches of it
}

// writerCases draws one to four files from data. The input seeds a PRNG
// that picks, per file, up to six columns of any of the four types and,
// per column, a NULL density and a kind of content: INT64 runs, constants
// or spread values; FLOAT64 values with infinities and negative zero;
// STRING values that are few and repeated (dictionary), all distinct, longer
// than statsMaxString with shared prefixes and 0x00/0xFF bytes next to the
// cut, or numeric spellings; BOOL runs. Now and then a value comes in with
// another type and is coerced. No value is NaN, where the writer departs from
// the reference on purpose (TestNaNGroupIsNeverPruned).
func writerCases(data []byte) []writerCase {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	cases := make([]writerCase, 1+rng.Intn(4))
	for f := range cases {
		c := &cases[f]
		ncols := 1 + rng.Intn(6)
		kinds := make([]int, ncols)
		nullPct := make([]int, ncols)
		for i := range kinds {
			typ := datum.Type(rng.Intn(int(datum.TypeBool) + 1))
			c.schema.Columns = append(c.schema.Columns, Column{Name: fmt.Sprintf("c%d", i), Type: typ})
			kinds[i] = rng.Intn(4)
			nullPct[i] = pick(0, 0, 10, 50, 100)
		}
		c.opts = WriterOptions{
			RowGroupRows:      pick(1, 2, 3, 7, 16, 64, 100, 1000, 0),
			StripeTargetBytes: int64(pick(0, 64, 300, 2000)),
		}
		c.byBatch = pick(0, 0, 1, 5, 64)
		prefix := randomBytes(rng, statsMaxString-2+rng.Intn(4))
		rows := make([][]datum.Datum, pick(0, 1, 2, 9, 40, 150, 400))
		for r := range rows {
			row := make([]datum.Datum, ncols)
			for i, col := range c.schema.Columns {
				if rng.Intn(100) < nullPct[i] {
					row[i] = datum.NullOf(col.Type)
					continue
				}
				row[i] = writerValue(rng, col.Type, kinds[i], r, prefix)
				if rng.Intn(50) == 0 {
					row[i] = datum.Str(row[i].AsString()) // coerced back on write
				}
			}
			rows[r] = row
		}
		c.rows = rows
	}
	return cases
}

// writerValue draws one non-NULL value of type typ and content kind.
func writerValue(rng *rand.Rand, typ datum.Type, kind, row int, prefix string) datum.Datum {
	switch typ {
	case datum.TypeInt64:
		switch kind {
		case 0:
			return datum.Int(int64(row / (1 + rng.Intn(20)))) // runs
		case 1:
			return datum.Int(42)
		case 2:
			return datum.Int(int64(rng.Uint64()))
		default:
			return datum.Int(int64(rng.Intn(7)) - 3)
		}
	case datum.TypeFloat64:
		switch rng.Intn(12) {
		case 0:
			return datum.Float(math.Inf(1 - 2*rng.Intn(2)))
		case 1:
			return datum.Float(math.Copysign(0, -1))
		}
		if kind == 0 {
			return datum.Float(float64(rng.Intn(5)) / 4)
		}
		return datum.Float(rng.NormFloat64() * 1e6)
	case datum.TypeString:
		switch kind {
		case 0:
			return datum.Str([]string{"red", "green", "blue", "", prefix + "a"}[rng.Intn(5)])
		case 1:
			return datum.Str(fmt.Sprintf("value-%06d-%s", row, randomBytes(rng, rng.Intn(4))))
		case 2:
			// Around the truncation cut: a shared prefix, then bytes that
			// sort below, between and above the 0xFF padding.
			return datum.Str(prefix + randomBytes(rng, rng.Intn(5)))
		default:
			spellings := []string{"0", "-0", "+7", "1e5", "-.5", ".5", "inf", "-Inf", "Infinity", "0x1p-2", "1_000", "12abc", "-", "."}
			if rng.Intn(3) == 0 {
				return datum.Str(spellings[rng.Intn(len(spellings))])
			}
			return datum.Str(strconv.FormatFloat(rng.NormFloat64()*100, 'g', -1, 64))
		}
	default:
		if kind == 0 {
			return datum.Bool(row/(1+rng.Intn(9))%2 == 0)
		}
		return datum.Bool(rng.Intn(2) == 0)
	}
}

// randomBytes draws n bytes from a small alphabet with both byte extremes.
func randomBytes(rng *rand.Rand, n int) string {
	const alphabet = "\x00\x01ab~\xfe\xff"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// FuzzWriterMatchesReference holds the pooled writer to the bytes of the
// encoder it replaced (referenceWrite, a frozen copy). The files an input
// draws are written one after another in one scratch — each writer starts
// in what the last one released, whatever its schema — so scratch a release
// failed to reset shows up as a differing byte. WriteRows, which copies the
// file out of the pool, must agree too. The seed corpus is the committed
// testdata/fuzz/FuzzWriterMatchesReference.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newScratch()
		for i, c := range writerCases(data) {
			w := newWriter(c.schema, c.opts, s)
			var err error
			if c.byBatch == 0 {
				for _, r := range c.rows {
					if err = w.AppendRow(r); err != nil {
						break
					}
				}
			} else {
				cols := make([][]datum.Datum, len(c.schema.Columns))
				for off := 0; off < len(c.rows) && err == nil; off += c.byBatch {
					n := min(c.byBatch, len(c.rows)-off)
					for ci := range cols {
						cols[ci] = cols[ci][:0]
						for _, r := range c.rows[off : off+n] {
							cols[ci] = append(cols[ci], r[ci])
						}
					}
					err = w.AppendColumns(cols, n)
				}
			}
			if err != nil {
				t.Fatalf("file %d: append: %v", i, err)
			}
			got, err := w.Finish()
			if err != nil {
				t.Fatalf("file %d: %v", i, err)
			}
			got = bytes.Clone(got)
			s = w.detach()
			if _, err := OpenReader(got); err != nil {
				t.Fatalf("file %d does not open: %v", i, err)
			}
			if refHasNaN(c.schema, c.rows) {
				t.Fatalf("file %d holds a NaN; writerCases draws none", i)
			}
			want := referenceWrite(c.schema, c.rows, c.opts)
			if !bytes.Equal(got, want) {
				t.Fatalf("file %d (%d columns, %d rows, %+v): %d bytes, the reference %d; first difference at byte %d",
					i, len(c.schema.Columns), len(c.rows), c.opts, len(got), len(want), firstDiff(got, want))
			}
			if again, err := WriteRows(c.schema, c.rows, c.opts); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("file %d: WriteRows differs from the reference (err %v)", i, err)
			}
		}
	})
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
