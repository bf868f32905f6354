package orc

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/datum"
)

// huge is a length no buffer can hold and that wraps negative as an int.
const huge = uint64(1)<<63 + 15

// oneChunkFile frames chunk as the only column chunk of a one-group,
// one-stripe file of the given type and row count, with a well-formed
// footer, so a test can put any bytes in front of the chunk decoder.
func oneChunkFile(t testing.TB, typ datum.Type, rows int, chunk []byte) []byte {
	t.Helper()
	var body encoder
	body.uvarint(uint64(len(chunk)))
	body.bytes(chunk)
	return oneGroupFile(t, typ, rows, body.buf)
}

// oneGroupFile is oneChunkFile with the row group's bytes given raw,
// length prefix included.
func oneGroupFile(t testing.TB, typ datum.Type, rows int, group []byte) []byte {
	t.Helper()
	w := NewWriter(Schema{Columns: []Column{{Name: "c", Type: typ}}}, WriterOptions{})
	s := w.s
	start := int64(len(s.body.buf))
	s.body.bytes(group)
	s.stripes = append(s.stripes, writtenStripe{offset: start, length: int64(len(group)), rows: int64(rows), groups: 1})
	s.groups = append(s.groups, writtenGroup{length: int64(len(group)), rows: int32(rows)})
	s.stats = append(s.stats, ColumnStats{})
	w.totalRows = int64(rows)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mustFailCorrupt opens data and drains column c through NextBatch and
// through Next; each must end in ErrCorrupt (at open or while reading),
// never in a panic and never in a clean end of file.
func mustFailCorrupt(t *testing.T, data []byte) {
	t.Helper()
	for _, batch := range []bool{true, false} {
		r, err := OpenReader(data)
		if err == nil {
			var cur *Cursor
			cur, err = r.NewCursor([]string{"c"}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if batch {
				_, err = drainBatch(cur, 1, 4)
			} else {
				_, err = drainNext(cur)
			}
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("batch=%v: err = %v, want ErrCorrupt", batch, err)
		}
	}
}

// chunkOf assembles a column chunk: an all-present bitmap for rows rows, the
// encoding tag, then the value stream.
func chunkOf(rows int, tag byte, values func(e *encoder)) []byte {
	var e encoder
	e.bytes(make([]byte, (rows+7)/8))
	e.buf = append(e.buf, tag)
	values(&e)
	return e.buf
}

// The bug this PR's unsafe view could not live with: a string length of 2^63
// or more made pos+int(n) negative, the bounds test passed, and the slice
// expression panicked ("slice bounds out of range [:-9223372036854775793]")
// where the caller expected ErrCorrupt. The 12-byte buffer is the one the
// issue reproduced it with.
func TestCorruptStringLengthOverflow(t *testing.T) {
	buf := binary.AppendUvarint(nil, huge)
	buf = append(buf, 'x', 'y')
	if len(buf) != 12 {
		t.Fatalf("buffer is %d bytes", len(buf))
	}
	for name, read := range map[string]func(*decoder) string{
		"str":  (*decoder).str,
		"view": (*decoder).view,
	} {
		d := decoder{buf: buf}
		if s := read(&d); s != "" || !errors.Is(d.err, ErrCorrupt) {
			t.Errorf("%s: got %q, err %v; want \"\" and ErrCorrupt", name, s, d.err)
		}
	}
	mustFailCorrupt(t, oneChunkFile(t, datum.TypeString, 2, chunkOf(2, encPlain, func(e *encoder) {
		e.str("ok")
		e.uvarint(huge)
		e.bytes([]byte("xy"))
	})))
}

func TestCorruptTakeOverflow(t *testing.T) {
	for _, n := range []uint64{13, huge, ^uint64(0)} {
		d := decoder{buf: make([]byte, 12)}
		if b := d.take(n); b != nil || !errors.Is(d.err, ErrCorrupt) {
			t.Errorf("take(%d) = %v, err %v; want nil and ErrCorrupt", n, b, d.err)
		}
	}
	d := decoder{buf: make([]byte, 12), pos: 12}
	if b := d.take(0); d.err != nil || len(b) != 0 {
		t.Errorf("take(0) at the end = %v, err %v", b, d.err)
	}
}

func TestCorruptChunkLengthOverflow(t *testing.T) {
	var group encoder
	group.uvarint(huge)
	group.bytes([]byte{0, encPlain, 1, 2, 3, 4, 5, 6, 7, 8})
	mustFailCorrupt(t, oneGroupFile(t, datum.TypeInt64, 1, group.buf))
}

func TestCorruptDictSizeOverflow(t *testing.T) {
	for _, size := range []uint64{4, huge} { // 4 > the 3 non-null values; huge wraps
		mustFailCorrupt(t, oneChunkFile(t, datum.TypeString, 3, chunkOf(3, encDict, func(e *encoder) {
			e.uvarint(size)
			e.str("a")
			e.uvarint(0)
			e.uvarint(0)
			e.uvarint(0)
		})))
	}
	// An index past the dictionary is the same class of mistake.
	mustFailCorrupt(t, oneChunkFile(t, datum.TypeString, 1, chunkOf(1, encDict, func(e *encoder) {
		e.uvarint(1)
		e.str("a")
		e.uvarint(huge)
	})))
}

func TestCorruptRLECountOverflow(t *testing.T) {
	for name, runs := range map[string]func(e *encoder){
		"count wraps":        func(e *encoder) { e.uvarint(1); e.uvarint(huge); e.i64(7) },
		"count over rows":    func(e *encoder) { e.uvarint(1); e.uvarint(4); e.i64(7) },
		"runs wrap":          func(e *encoder) { e.uvarint(huge); e.uvarint(3); e.i64(7) },
		"too few values":     func(e *encoder) { e.uvarint(1); e.uvarint(2); e.i64(7) },
		"run left over":      func(e *encoder) { e.uvarint(2); e.uvarint(3); e.i64(7); e.uvarint(1); e.i64(8) },
		"second run too big": func(e *encoder) { e.uvarint(2); e.uvarint(2); e.i64(7); e.uvarint(2); e.i64(8) },
	} {
		t.Run(name, func(t *testing.T) {
			mustFailCorrupt(t, oneChunkFile(t, datum.TypeInt64, 3, chunkOf(3, encRLE, runs)))
		})
	}
}

// footerCase writes a valid two-stripe file, lets mutate damage the
// directory the writer is about to encode, and returns the bytes.
func footerCase(t *testing.T, mutate func(w *Writer)) []byte {
	t.Helper()
	w := NewWriter(testSchema, WriterOptions{RowGroupRows: 10, StripeTargetBytes: 600})
	for _, row := range makeRows(50) {
		if err := w.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	w.flushRowGroup()
	if len(w.s.stripes) < 2 {
		t.Fatalf("want at least two stripes, have %d", len(w.s.stripes))
	}
	mutate(w)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustRejectFooter(t *testing.T, name string, mutate func(w *Writer)) {
	t.Helper()
	if _, err := ParseFooter(footerCase(t, mutate)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: ParseFooter err = %v, want ErrCorrupt", name, err)
	}
}

func TestFooterAcceptsWhatTheWriterWrites(t *testing.T) {
	if _, err := ParseFooter(footerCase(t, func(*Writer) {})); err != nil {
		t.Fatal(err)
	}
}

func TestFooterRejectsNegativeRowGroupRows(t *testing.T) {
	mustRejectFooter(t, "rows=-1", func(w *Writer) { w.s.groups[0].rows = -1 })
	// Negative even when the totals are bent to agree with it.
	mustRejectFooter(t, "rows=-1, sums adjusted", func(w *Writer) {
		rg := &w.s.groups[0]
		w.s.stripes[0].rows -= int64(rg.rows) + 1
		w.totalRows -= int64(rg.rows) + 1
		rg.rows = -1
	})
}

func TestFooterRejectsExtentsOutsideFile(t *testing.T) {
	last := func(w *Writer) *writtenStripe { return &w.s.stripes[len(w.s.stripes)-1] }
	mustRejectFooter(t, "stripe runs into the footer", func(w *Writer) { last(w).length += 1 })
	mustRejectFooter(t, "stripe starts past the file", func(w *Writer) { last(w).offset = 1 << 40 })
	mustRejectFooter(t, "stripe starts inside the head magic", func(w *Writer) { w.s.stripes[0].offset = 2 })
	mustRejectFooter(t, "stripe offset negative", func(w *Writer) { w.s.stripes[0].offset = -8 })
	mustRejectFooter(t, "stripe length negative", func(w *Writer) { w.s.stripes[0].length = -8 })
	mustRejectFooter(t, "stripe extent wraps", func(w *Writer) { w.s.stripes[0].length = 1<<63 - 1 })
	mustRejectFooter(t, "row group past its stripe", func(w *Writer) {
		w.s.groups[w.s.stripes[0].groups-1].length += 1
	})
	mustRejectFooter(t, "row group offset negative", func(w *Writer) { w.s.groups[0].offset = -1 })
	mustRejectFooter(t, "row group length negative", func(w *Writer) { w.s.groups[0].length = -1 })
	mustRejectFooter(t, "row group extent wraps", func(w *Writer) { w.s.groups[0].offset = 1<<63 - 1 })
}

func TestFooterRejectsRowCountMismatch(t *testing.T) {
	mustRejectFooter(t, "file total", func(w *Writer) { w.totalRows++ })
	mustRejectFooter(t, "file total negative", func(w *Writer) { w.totalRows = -50 })
	mustRejectFooter(t, "stripe total", func(w *Writer) { w.s.stripes[1].rows-- })
	mustRejectFooter(t, "row group", func(w *Writer) { w.s.groups[0].rows++ })
}

// zeroColumnFile is a file with no columns whose footer claims rows rows in
// one row group: a few footer bytes that, accepted, made Next and NextBatch
// spin once per claimed row with nothing in the file to stop them.
func zeroColumnFile(t testing.TB, rows int32) []byte {
	t.Helper()
	w := NewWriter(Schema{}, WriterOptions{})
	w.s.stripes = append(w.s.stripes, writtenStripe{offset: int64(len(w.s.body.buf)), rows: int64(rows), groups: 1})
	w.s.groups = append(w.s.groups, writtenGroup{rows: rows})
	w.totalRows = int64(rows)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFooterRejectsRowsWithoutColumns(t *testing.T) {
	for _, rows := range []int32{1, 1<<31 - 1} {
		if _, err := ParseFooter(zeroColumnFile(t, rows)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d rows, no columns: ParseFooter err = %v, want ErrCorrupt", rows, err)
		}
	}
	// No columns and no rows is an empty file, and reads as one.
	r, err := OpenReader(zeroColumnFile(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := r.NewCursor(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := drainNext(cur); err != nil || len(rows) != 0 {
		t.Errorf("empty zero-column file: %d rows, err %v", len(rows), err)
	}
	// And the writer never produces the rejected shape.
	if err := NewWriter(Schema{}, WriterOptions{}).AppendRow(nil); err == nil {
		t.Error("AppendRow on a schema without columns succeeded")
	}
}

// A reader built over bytes shorter than its footer describes (NewReader
// trusts the caller's version check) still fails clean.
func TestReaderOverWrongBytesFailsClean(t *testing.T) {
	data := footerCase(t, func(*Writer) {})
	ft, err := ParseFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ft.NewReader(data[:40]).NewCursor([]string{"id"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainNext(cur); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	// And a failed cursor stays failed instead of serving the next group.
	if row, err := cur.Next(); row != nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("Next after failure = (%v, %v)", row, err)
	}
}
