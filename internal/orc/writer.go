package orc

import (
	"bytes"
	"fmt"
	"math"
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

// Writer builds one ORC file in memory. Append rows, Finish, then Release
// once the file's bytes are copied where they are kept.
type Writer struct {
	schema Schema
	opts   WriterOptions
	// s is the writer's scratch, from getScratch; nil once released.
	s           *scratch
	pendingRows int
	// open is the open stripe's index in s.stripes, -1 when none is open.
	open      int
	totalRows int64
	finished  bool
}

// scratch is all the memory a Writer works in: the pending row group, the
// file body Finish returns, the encoders' trial buffers and the footer's
// directory. It comes from getScratch and goes back on Release (putScratch),
// so a process that writes many files allocates one scratch per concurrent
// writer rather than one per file, row group and value; the pool lets it go
// within two GC cycles once writing stops. Between writers it holds no
// string (detach clears them), so pooled scratch pins no caller's file.
type scratch struct {
	pending []columnBuffer
	body    encoder // the file so far; Finish returns its bytes
	chunk   encoder // one column chunk, copied into body
	rle     encoder // encodeIntChunk's run-length trial
	// ints and strs gather the non-null values of the chunk being encoded.
	ints []int64
	strs []string
	// dict and order are encodeStringChunk's dictionary trial.
	dict  map[string]int
	order []string
	// The footer's directory: stripes, their row groups in file order, and
	// every group's column statistics, one per schema column.
	stripes []writtenStripe
	groups  []writtenGroup
	stats   []ColumnStats
}

func newScratch() *scratch { return &scratch{dict: map[string]int{}} }

// writtenStripe is one stripe of the file being written; its row groups are
// the next groups entries of scratch.groups.
type writtenStripe struct {
	offset, length, rows int64
	groups               int
}

// writtenGroup is one row group of the file being written, with its offset
// relative to its stripe's.
type writtenGroup struct {
	offset, length int64
	rows           int32
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
	return newWriter(schema, opts, getScratch())
}

// newWriter returns a writer working in scratch s.
func newWriter(schema Schema, opts WriterOptions, s *scratch) *Writer {
	s.body.buf = s.body.buf[:0]
	s.body.str(Magic)
	s.stripes, s.groups, s.stats = s.stripes[:0], s.groups[:0], s.stats[:0]
	n := len(schema.Columns)
	if cap(s.pending) < n {
		s.pending = append(s.pending[:cap(s.pending)], make([]columnBuffer, n-cap(s.pending))...)
	}
	s.pending = s.pending[:n]
	for i, c := range schema.Columns {
		s.pending[i].typ = c.Type
	}
	w := &Writer{schema: schema, opts: opts.withDefaults(), s: s, open: -1}
	w.resetPending()
	return w
}

// Release hands the writer's scratch back for the next writer to reuse. The
// bytes Finish returned live in that scratch, so the caller copies what it
// keeps first; after Release they may be overwritten at any time, and the
// writer takes no further call. Release may be called at any point, once or
// more, Finish or not; a writer never released is simply collected.
func (w *Writer) Release() {
	if s := w.detach(); s != nil {
		putScratch(s)
	}
}

// detach takes the scratch from the writer, cleared for the next one; nil
// when it is already gone.
func (w *Writer) detach() *scratch {
	s := w.s
	if s == nil {
		return nil
	}
	w.s, w.finished = nil, true
	// Drop every string the scratch still refers to: the pending group's
	// values (a failed write leaves some) and the statistics' extremes.
	for i := range s.pending {
		clear(s.pending[i].strs)
		s.pending[i].strs = s.pending[i].strs[:0]
	}
	clear(s.stats)
	s.stats = s.stats[:0]
	return s
}

// resetPending empties the pending row group, keeping the column buffers'
// capacity: encodeColumn copied what it needed into the body.
func (w *Writer) resetPending() {
	for i := range w.s.pending {
		cb := &w.s.pending[i]
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
		w.s.pending[i].add(row[i])
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
			cb := &w.s.pending[i]
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
	s := w.s
	if w.open < 0 {
		s.stripes = append(s.stripes, writtenStripe{offset: int64(len(s.body.buf))})
		w.open = len(s.stripes) - 1
	}
	stripe := &s.stripes[w.open]
	groupStart := int64(len(s.body.buf)) - stripe.offset
	at := len(s.stats)
	s.stats = append(s.stats, make([]ColumnStats, len(s.pending))...)
	for i := range s.pending {
		w.encodeColumn(&s.pending[i], &s.stats[at+i])
	}
	s.groups = append(s.groups, writtenGroup{
		offset: groupStart,
		length: int64(len(s.body.buf)) - stripe.offset - groupStart,
		rows:   int32(w.pendingRows),
	})
	stripe.groups++
	stripe.rows += int64(w.pendingRows)
	stripe.length = int64(len(s.body.buf)) - stripe.offset
	if stripe.length >= w.opts.StripeTargetBytes {
		w.open = -1
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
// fills in its statistics, st (zero on entry).
func (w *Writer) encodeColumn(cb *columnBuffer, st *ColumnStats) {
	n := len(cb.nulls)
	// One chunk buffer serves every column of every row group: its bytes are
	// copied into the body before the next column is encoded.
	chunk := &w.s.chunk
	// Null bitmap.
	chunk.buf = append(chunk.buf[:0], make([]byte, (n+7)/8)...)
	for i, isNull := range cb.nulls {
		if isNull {
			chunk.buf[i/8] |= 1 << uint(i%8)
			st.NullCount++
		}
	}

	// Gather non-null values and stats. Go's < and > are false against a
	// NaN, so extremes taken across one prove nothing (and the engine treats
	// NaN as equal to every number): a group holding a NaN records NaN
	// extremes, which predicateMayMatch never prunes on.
	nan := false
	switch cb.typ {
	case datum.TypeInt64:
		vals := w.s.ints[:0]
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
		w.s.ints = vals
		encodeIntChunk(chunk, &w.s.rle, vals)
	case datum.TypeFloat64:
		chunk.buf = append(chunk.buf, encPlain)
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			v := cb.flts[i]
			nan = nan || math.IsNaN(v)
			if !st.HasValues || v < st.MinF {
				st.MinF = v
			}
			if !st.HasValues || v > st.MaxF {
				st.MaxF = v
			}
			st.HasValues = true
			chunk.f64(v)
		}
		if nan {
			st.MinF, st.MaxF = math.NaN(), math.NaN()
		}
	case datum.TypeString:
		vals := w.s.strs[:0]
		// The extremes are tracked whole and truncated once, at the end:
		// comparing each value with the truncated extremes instead picks the
		// same prefixes, and truncating the maximum allocates.
		var minS, maxS string
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			v := cb.strs[i]
			if !st.HasValues || v < minS {
				minS = v
			}
			if !st.HasValues || v > maxS {
				maxS = v
			}
			if f, ok := parseNumeric(v); ok {
				if !st.HasValues {
					st.AllNumeric = true
				}
				if st.AllNumeric {
					nan = nan || math.IsNaN(f)
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
		if st.AllNumeric && nan {
			st.MinNum, st.MaxNum = math.NaN(), math.NaN()
		}
		st.MinS, st.MaxS = ownedExtremes(minS, maxS)
		encodeStringChunk(chunk, w.s, vals)
		clear(vals)
		w.s.strs = vals[:0]
	case datum.TypeBool:
		chunk.buf = append(chunk.buf, encBitpacked)
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
				chunk.buf = append(chunk.buf, cur)
				cur, bit = 0, 0
			}
		}
		if bit > 0 {
			chunk.buf = append(chunk.buf, cur)
		}
	}

	w.s.body.uvarint(uint64(len(chunk.buf)))
	w.s.body.bytes(chunk.buf)
}

// encodeIntChunk picks run-length encoding when it beats plain 8-byte
// values (timestamps, sequence ids, and low-cardinality ints compress
// heavily in production data). rle is the trial's buffer.
func encodeIntChunk(chunk, rle *encoder, vals []int64) {
	rle.buf = rle.buf[:0]
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
// is small relative to the row count. The trial runs in s.dict and s.order,
// which it leaves empty.
func encodeStringChunk(chunk *encoder, s *scratch, vals []string) {
	dict, order := s.dict, s.order[:0]
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
	} else {
		chunk.buf = append(chunk.buf, encPlain)
		for _, v := range vals {
			chunk.str(v)
		}
	}
	clear(dict)
	clear(order)
	s.order = order[:0]
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

// ownedExtremes returns the statistics' copies of a string column's
// extremes: truncated to statsMaxString bytes to bound the index (a prefix is
// still a lower bound; the maximum's is padded with 0xFF so it stays an upper
// bound), and sharing no memory with the caller's strings, which may be views
// of a file being rewritten.
func ownedExtremes(minS, maxS string) (string, string) {
	if len(minS) > statsMaxString {
		minS = minS[:statsMaxString]
	}
	if len(maxS) > statsMaxString {
		return strings.Clone(minS), maxS[:statsMaxString] + "\xff"
	}
	return strings.Clone(minS), strings.Clone(maxS)
}

// Finish flushes pending rows, writes the footer, and returns the complete
// file bytes. They belong to the writer's scratch: the caller copies what it
// keeps before Release. The writer takes no further append.
func (w *Writer) Finish() ([]byte, error) {
	if w.finished {
		return nil, fmt.Errorf("orc: Finish called twice")
	}
	w.flushRowGroup()
	w.finished = true

	s := w.s
	e := &s.body
	footerStart := len(e.buf)
	// Schema.
	e.uvarint(uint64(len(w.schema.Columns)))
	for _, c := range w.schema.Columns {
		e.str(c.Name)
		e.buf = append(e.buf, byte(c.Type))
	}
	e.u64(uint64(w.totalRows))
	e.u32(uint32(w.opts.RowGroupRows))
	// Stripes.
	e.uvarint(uint64(len(s.stripes)))
	groups, stats := s.groups, s.stats
	for _, st := range s.stripes {
		e.i64(st.offset)
		e.i64(st.length)
		e.i64(st.rows)
		e.uvarint(uint64(st.groups))
		for _, rg := range groups[:st.groups] {
			e.i64(rg.offset)
			e.i64(rg.length)
			e.u32(uint32(rg.rows))
			for ci, c := range w.schema.Columns {
				encodeStats(e, c.Type, stats[ci])
			}
			stats = stats[len(w.schema.Columns):]
		}
		groups = groups[st.groups:]
	}
	footerLen := len(e.buf) - footerStart
	e.u32(uint32(footerLen))
	e.str(Magic)
	return e.buf, nil
}

// WriteRows writes all rows into a single file and returns its bytes, which
// the caller owns.
func WriteRows(schema Schema, rows [][]datum.Datum, opts WriterOptions) ([]byte, error) {
	w := NewWriter(schema, opts)
	defer w.Release()
	for _, r := range rows {
		if err := w.AppendRow(r); err != nil {
			return nil, err
		}
	}
	data, err := w.Finish()
	return bytes.Clone(data), err
}
