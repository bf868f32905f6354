package orc

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/datum"
)

// WriterOptions tune the file layout.
type WriterOptions struct {
	// RowGroupRows caps rows per row group (default DefaultRowGroupRows).
	RowGroupRows int
	// StripeTargetBytes closes the current stripe once its encoded size
	// reaches this many bytes (default DefaultStripeTargetBytes). A file
	// whose data fits under the target has exactly one stripe, which is the
	// precondition for cross-table predicate pushdown.
	StripeTargetBytes int64
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.RowGroupRows <= 0 {
		o.RowGroupRows = DefaultRowGroupRows
	}
	if o.StripeTargetBytes <= 0 {
		o.StripeTargetBytes = DefaultStripeTargetBytes
	}
	return o
}

// Writer builds one ORC file in memory. Append rows, then Finish.
type Writer struct {
	schema Schema
	opts   WriterOptions

	// pending row group accumulation, column-major.
	pending     []columnBuffer
	pendingRows int

	// encoded stripes so far.
	body        encoder
	chunk       encoder // scratch of encodeColumn
	stripes     []stripeMeta
	curStripe   *stripeMeta
	stripeStart int64
	totalRows   int64
	finished    bool
}

// columnBuffer accumulates one column of the pending row group.
type columnBuffer struct {
	typ   datum.Type
	nulls []bool
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
}

// NewWriter returns a writer for the schema.
func NewWriter(schema Schema, opts WriterOptions) *Writer {
	w := &Writer{schema: schema, opts: opts.withDefaults()}
	w.body.str(Magic)
	w.stripeStart = int64(len(w.body.buf))
	w.resetPending()
	return w
}

// resetPending empties the pending row group, keeping the column buffers'
// capacity: encodeColumn copied what it needed into the body.
func (w *Writer) resetPending() {
	if w.pending == nil {
		w.pending = make([]columnBuffer, len(w.schema.Columns))
		for i, c := range w.schema.Columns {
			w.pending[i].typ = c.Type
		}
	}
	for i := range w.pending {
		cb := &w.pending[i]
		cb.nulls, cb.ints, cb.flts, cb.bools = cb.nulls[:0], cb.ints[:0], cb.flts[:0], cb.bools[:0]
		clear(cb.strs) // drop the references, so a flushed group pins no source file
		cb.strs = cb.strs[:0]
	}
	w.pendingRows = 0
}

// add appends one value, coerced to the column's type (NULL results from
// impossible coercions).
func (cb *columnBuffer) add(v datum.Datum) {
	d := datum.Coerce(v, cb.typ)
	cb.nulls = append(cb.nulls, d.Null)
	switch cb.typ {
	case datum.TypeInt64:
		cb.ints = append(cb.ints, d.I)
	case datum.TypeFloat64:
		cb.flts = append(cb.flts, d.F)
	case datum.TypeString:
		cb.strs = append(cb.strs, d.S)
	case datum.TypeBool:
		cb.bools = append(cb.bools, d.B)
	}
}

// appendable reports why rows of the given arity cannot be appended, nil when
// they can.
func (w *Writer) appendable(arity int) error {
	if w.finished {
		return fmt.Errorf("orc: append after Finish")
	}
	if len(w.schema.Columns) == 0 {
		// Rows without columns would cost the file no bytes; ParseFooter
		// rejects such a file, so never write one.
		return fmt.Errorf("orc: append on a schema without columns")
	}
	if arity != len(w.schema.Columns) {
		return fmt.Errorf("%w: got %d values, schema has %d columns", ErrColumnMismatch, arity, len(w.schema.Columns))
	}
	return nil
}

// AppendRow adds one row. Values must match the schema's arity; each value
// is coerced to its column type.
func (w *Writer) AppendRow(row []datum.Datum) error {
	if err := w.appendable(len(row)); err != nil {
		return err
	}
	for i := range row {
		w.pending[i].add(row[i])
	}
	w.grew(1)
	return nil
}

// AppendColumns adds n rows handed over column-wise: cols[i][:n] holds the
// values of schema column i. It writes the same file as n AppendRow calls
// and needs no row slices to do it.
func (w *Writer) AppendColumns(cols [][]datum.Datum, n int) error {
	if err := w.appendable(len(cols)); err != nil {
		return err
	}
	for off := 0; off < n; {
		take := min(n-off, w.opts.RowGroupRows-w.pendingRows)
		for i := range cols {
			cb := &w.pending[i]
			for _, v := range cols[i][off : off+take] {
				cb.add(v)
			}
		}
		w.grew(take)
		off += take
	}
	return nil
}

// grew records n more pending rows and flushes the row group once it is full.
func (w *Writer) grew(n int) {
	w.pendingRows += n
	w.totalRows += int64(n)
	if w.pendingRows >= w.opts.RowGroupRows {
		w.flushRowGroup()
	}
}

// flushRowGroup encodes the pending rows as one row group in the current
// stripe, opening a stripe if needed and closing it if it hits the target.
func (w *Writer) flushRowGroup() {
	if w.pendingRows == 0 {
		return
	}
	if w.curStripe == nil {
		w.stripes = append(w.stripes, stripeMeta{offset: int64(len(w.body.buf))})
		w.curStripe = &w.stripes[len(w.stripes)-1]
	}
	groupStart := int64(len(w.body.buf)) - w.curStripe.offset
	stats := make([]ColumnStats, len(w.pending))
	for i := range w.pending {
		stats[i] = w.encodeColumn(&w.pending[i])
	}
	w.curStripe.rowGroups = append(w.curStripe.rowGroups, rowGroupMeta{
		offset: groupStart,
		length: int64(len(w.body.buf)) - w.curStripe.offset - groupStart,
		rows:   int32(w.pendingRows),
		stats:  stats,
	})
	w.curStripe.rows += int64(w.pendingRows)
	w.curStripe.length = int64(len(w.body.buf)) - w.curStripe.offset
	if w.curStripe.length >= w.opts.StripeTargetBytes {
		w.curStripe = nil
	}
	w.resetPending()
}

// Column-chunk encodings. Each column of a row group is written as one
// length-prefixed chunk so readers can skip unselected columns without
// decoding (and without charging their bytes to the read meter, matching
// columnar I/O). Inside the chunk: the null bitmap, an encoding tag, then
// the encoded non-null values.
const (
	encPlain     byte = 0 // fixed-width or length-prefixed values
	encRLE       byte = 1 // int64 runs: (runLen uvarint, value i64)
	encDict      byte = 2 // string dictionary + uvarint indexes
	encBitpacked byte = 3 // bools packed 8 per byte
)

// encodeColumn writes one column of the pending row group as a chunk and
// returns its statistics.
func (w *Writer) encodeColumn(cb *columnBuffer) ColumnStats {
	n := len(cb.nulls)
	var st ColumnStats
	// One chunk buffer serves every column of every row group: its bytes are
	// copied into the body before the next column is encoded.
	chunk := &w.chunk
	chunk.buf = chunk.buf[:0]
	// Null bitmap.
	bitmap := make([]byte, (n+7)/8)
	for i, isNull := range cb.nulls {
		if isNull {
			bitmap[i/8] |= 1 << uint(i%8)
			st.NullCount++
		}
	}
	chunk.bytes(bitmap)

	// Gather non-null values and stats.
	switch cb.typ {
	case datum.TypeInt64:
		vals := make([]int64, 0, n-int(st.NullCount))
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			v := cb.ints[i]
			if !st.HasValues || v < st.MinI {
				st.MinI = v
			}
			if !st.HasValues || v > st.MaxI {
				st.MaxI = v
			}
			st.HasValues = true
			vals = append(vals, v)
		}
		encodeIntChunk(chunk, vals)
	case datum.TypeFloat64:
		chunk.buf = append(chunk.buf, encPlain)
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			v := cb.flts[i]
			if !st.HasValues || v < st.MinF {
				st.MinF = v
			}
			if !st.HasValues || v > st.MaxF {
				st.MaxF = v
			}
			st.HasValues = true
			chunk.f64(v)
		}
	case datum.TypeString:
		vals := make([]string, 0, n-int(st.NullCount))
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			v := cb.strs[i]
			if !st.HasValues || v < st.MinS {
				st.MinS = truncateMin(v)
			}
			if !st.HasValues || v > st.MaxS {
				st.MaxS = truncateMax(v)
			}
			if f, ok := parseNumeric(v); ok {
				if !st.HasValues {
					st.AllNumeric = true
				}
				if st.AllNumeric {
					if !st.HasValues || f < st.MinNum {
						st.MinNum = f
					}
					if !st.HasValues || f > st.MaxNum {
						st.MaxNum = f
					}
				}
			} else {
				st.AllNumeric = false
			}
			st.HasValues = true
			vals = append(vals, v)
		}
		// The extremes are (prefixes of) the caller's strings, which may be
		// views of a file being rewritten; what the writer keeps, it owns.
		st.MinS, st.MaxS = strings.Clone(st.MinS), strings.Clone(st.MaxS)
		encodeStringChunk(chunk, vals)
	case datum.TypeBool:
		chunk.buf = append(chunk.buf, encBitpacked)
		var packed []byte
		bit := 0
		var cur byte
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			v := cb.bools[i]
			if v {
				st.HasTrue = true
				cur |= 1 << uint(bit)
			} else {
				st.HasFalse = true
			}
			st.HasValues = true
			bit++
			if bit == 8 {
				packed = append(packed, cur)
				cur, bit = 0, 0
			}
		}
		if bit > 0 {
			packed = append(packed, cur)
		}
		chunk.bytes(packed)
	}

	w.body.uvarint(uint64(len(chunk.buf)))
	w.body.bytes(chunk.buf)
	return st
}

// encodeIntChunk picks run-length encoding when it beats plain 8-byte
// values (timestamps, sequence ids, and low-cardinality ints compress
// heavily in production data).
func encodeIntChunk(chunk *encoder, vals []int64) {
	var rle encoder
	runs := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		rle.uvarint(uint64(j - i))
		rle.i64(vals[i])
		runs++
		i = j
	}
	if len(rle.buf) < len(vals)*8 {
		chunk.buf = append(chunk.buf, encRLE)
		chunk.uvarint(uint64(runs))
		chunk.bytes(rle.buf)
		return
	}
	chunk.buf = append(chunk.buf, encPlain)
	for _, v := range vals {
		chunk.i64(v)
	}
}

// encodeStringChunk picks dictionary encoding when the distinct-value set
// is small relative to the row count.
func encodeStringChunk(chunk *encoder, vals []string) {
	dict := map[string]int{}
	var order []string
	var dictBytes int
	for _, v := range vals {
		if _, ok := dict[v]; !ok {
			dict[v] = len(order)
			order = append(order, v)
			dictBytes += len(v) + 2
		}
	}
	plainBytes := 0
	for _, v := range vals {
		plainBytes += len(v) + 1
	}
	// Rough index cost: 1-2 bytes per row.
	if len(order) > 0 && dictBytes+2*len(vals) < plainBytes {
		chunk.buf = append(chunk.buf, encDict)
		chunk.uvarint(uint64(len(order)))
		for _, s := range order {
			chunk.str(s)
		}
		for _, v := range vals {
			chunk.uvarint(uint64(dict[v]))
		}
		return
	}
	chunk.buf = append(chunk.buf, encPlain)
	for _, v := range vals {
		chunk.str(v)
	}
}

// parseNumeric is strconv.ParseFloat for the numeric column statistics. A
// failed ParseFloat allocates an error holding a copy of its input, and most
// string values — every JSON document of a raw table — are not numbers, so a
// value that cannot be a float is turned away before the call: one beginning
// with neither a digit, a sign nor '.', unless it spells Inf, Infinity or NaN.
func parseNumeric(v string) (float64, bool) {
	if v == "" {
		return 0, false
	}
	switch c := v[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
	case strings.EqualFold(v, "inf"), strings.EqualFold(v, "infinity"), strings.EqualFold(v, "nan"):
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

// truncateMin bounds index size; a truncated prefix is still a lower bound.
func truncateMin(s string) string {
	if len(s) <= statsMaxString {
		return s
	}
	return s[:statsMaxString]
}

// truncateMax pads the truncated prefix with 0xFF so it remains an upper
// bound on the original string.
func truncateMax(s string) string {
	if len(s) <= statsMaxString {
		return s
	}
	return s[:statsMaxString] + "\xff"
}

// Finish flushes pending rows, writes the footer, and returns the complete
// file bytes. The writer cannot be reused afterwards.
func (w *Writer) Finish() ([]byte, error) {
	if w.finished {
		return nil, fmt.Errorf("orc: Finish called twice")
	}
	w.flushRowGroup()
	w.finished = true

	footerStart := len(w.body.buf)
	e := &w.body
	// Schema.
	e.uvarint(uint64(len(w.schema.Columns)))
	for _, c := range w.schema.Columns {
		e.str(c.Name)
		e.buf = append(e.buf, byte(c.Type))
	}
	e.u64(uint64(w.totalRows))
	e.u32(uint32(w.opts.RowGroupRows))
	// Stripes.
	e.uvarint(uint64(len(w.stripes)))
	for _, s := range w.stripes {
		e.i64(s.offset)
		e.i64(s.length)
		e.i64(s.rows)
		e.uvarint(uint64(len(s.rowGroups)))
		for _, rg := range s.rowGroups {
			e.i64(rg.offset)
			e.i64(rg.length)
			e.u32(uint32(rg.rows))
			for ci, st := range rg.stats {
				encodeStats(e, w.schema.Columns[ci].Type, st)
			}
		}
	}
	footerLen := len(e.buf) - footerStart
	e.u32(uint32(footerLen))
	e.str(Magic)
	return e.buf, nil
}

// WriteRows is a convenience that writes all rows into a single file.
func WriteRows(schema Schema, rows [][]datum.Datum, opts WriterOptions) ([]byte, error) {
	w := NewWriter(schema, opts)
	for _, r := range rows {
		if err := w.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}
