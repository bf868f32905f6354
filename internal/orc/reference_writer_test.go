package orc

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"

	"repro/internal/datum"
)

// referenceWrite is the encoder as it stood before the writer took its
// scratch from a pool, frozen here so FuzzWriterMatchesReference can hold
// the pooled writer to its bytes. It allocates everything it uses, per file,
// per row group and per value, and shares nothing with writer.go or
// format.go: the encode helpers and the statistics encoding are copied too.
// Do not edit it to follow the writer; a deliberate format change replaces
// it as a whole.
//
// Its one known defect is kept: the extremes of a row group whose first
// value is NaN stay NaN (the writer now records NaN extremes for any group
// holding a NaN), so the fuzz target compares files without NaN only.
func referenceWrite(schema Schema, rows [][]datum.Datum, opts WriterOptions) []byte {
	w := &refWriter{schema: schema, opts: opts.withDefaults()}
	w.body.str(Magic)
	w.resetPending()
	for _, row := range rows {
		for i := range row {
			w.pending[i].add(row[i])
		}
		w.pendingRows++
		w.totalRows++
		if w.pendingRows >= w.opts.RowGroupRows {
			w.flushRowGroup()
		}
	}
	return w.finish()
}

type refEncoder struct{ buf []byte }

func (e *refEncoder) u32(v uint32)     { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *refEncoder) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *refEncoder) i64(v int64)      { e.u64(uint64(v)) }
func (e *refEncoder) f64(v float64)    { e.u64(math.Float64bits(v)) }
func (e *refEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *refEncoder) bytes(b []byte)   { e.buf = append(e.buf, b...) }
func (e *refEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *refEncoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

type refGroup struct {
	offset, length int64
	rows           int32
	stats          []ColumnStats
}

type refStripe struct {
	offset, length, rows int64
	rowGroups            []refGroup
}

type refColumn struct {
	typ   datum.Type
	nulls []bool
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
}

func (cb *refColumn) add(v datum.Datum) {
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

type refWriter struct {
	schema      Schema
	opts        WriterOptions
	pending     []refColumn
	pendingRows int
	body        refEncoder
	stripes     []refStripe
	curStripe   *refStripe
	totalRows   int64
}

func (w *refWriter) resetPending() {
	w.pending = make([]refColumn, len(w.schema.Columns))
	for i, c := range w.schema.Columns {
		w.pending[i].typ = c.Type
	}
	w.pendingRows = 0
}

func (w *refWriter) flushRowGroup() {
	if w.pendingRows == 0 {
		return
	}
	if w.curStripe == nil {
		w.stripes = append(w.stripes, refStripe{offset: int64(len(w.body.buf))})
		w.curStripe = &w.stripes[len(w.stripes)-1]
	}
	groupStart := int64(len(w.body.buf)) - w.curStripe.offset
	stats := make([]ColumnStats, len(w.pending))
	for i := range w.pending {
		stats[i] = w.encodeColumn(&w.pending[i])
	}
	w.curStripe.rowGroups = append(w.curStripe.rowGroups, refGroup{
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

func (w *refWriter) encodeColumn(cb *refColumn) ColumnStats {
	n := len(cb.nulls)
	var st ColumnStats
	var chunk refEncoder
	bitmap := make([]byte, (n+7)/8)
	for i, isNull := range cb.nulls {
		if isNull {
			bitmap[i/8] |= 1 << uint(i%8)
			st.NullCount++
		}
	}
	chunk.bytes(bitmap)
	switch cb.typ {
	case datum.TypeInt64:
		var vals []int64
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
		refEncodeIntChunk(&chunk, vals)
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
		var vals []string
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			v := cb.strs[i]
			if !st.HasValues || v < st.MinS {
				st.MinS = refTruncateMin(v)
			}
			if !st.HasValues || v > st.MaxS {
				st.MaxS = refTruncateMax(v)
			}
			if f, ok := refParseNumeric(v); ok {
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
		refEncodeStringChunk(&chunk, vals)
	case datum.TypeBool:
		chunk.buf = append(chunk.buf, encBitpacked)
		var packed []byte
		bit := 0
		var cur byte
		for i := 0; i < n; i++ {
			if cb.nulls[i] {
				continue
			}
			if cb.bools[i] {
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

func refEncodeIntChunk(chunk *refEncoder, vals []int64) {
	var rle refEncoder
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

func refEncodeStringChunk(chunk *refEncoder, vals []string) {
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

func refParseNumeric(v string) (float64, bool) {
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

func refTruncateMin(s string) string {
	if len(s) <= 64 {
		return s
	}
	return s[:64]
}

func refTruncateMax(s string) string {
	if len(s) <= 64 {
		return s
	}
	return s[:64] + "\xff"
}

func refEncodeStats(e *refEncoder, t datum.Type, st ColumnStats) {
	e.i64(st.NullCount)
	e.bool(st.HasValues)
	if !st.HasValues {
		return
	}
	switch t {
	case datum.TypeInt64:
		e.i64(st.MinI)
		e.i64(st.MaxI)
	case datum.TypeFloat64:
		e.f64(st.MinF)
		e.f64(st.MaxF)
	case datum.TypeString:
		e.str(st.MinS)
		e.str(st.MaxS)
		e.bool(st.AllNumeric)
		if st.AllNumeric {
			e.f64(st.MinNum)
			e.f64(st.MaxNum)
		}
	case datum.TypeBool:
		e.bool(st.HasTrue)
		e.bool(st.HasFalse)
	}
}

func (w *refWriter) finish() []byte {
	w.flushRowGroup()
	footerStart := len(w.body.buf)
	e := &w.body
	e.uvarint(uint64(len(w.schema.Columns)))
	for _, c := range w.schema.Columns {
		e.str(c.Name)
		e.buf = append(e.buf, byte(c.Type))
	}
	e.u64(uint64(w.totalRows))
	e.u32(uint32(w.opts.RowGroupRows))
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
				refEncodeStats(e, w.schema.Columns[ci].Type, st)
			}
		}
	}
	e.u32(uint32(len(e.buf) - footerStart))
	e.str(Magic)
	return e.buf
}

// refHasNaN reports whether any value the reference encoder would compute
// numeric statistics over is NaN: a FLOAT64 value, or a STRING value that
// strconv.ParseFloat reads as NaN.
func refHasNaN(schema Schema, rows [][]datum.Datum) bool {
	for _, row := range rows {
		for i, v := range row {
			d := datum.Coerce(v, schema.Columns[i].Type)
			switch {
			case d.Null:
			case d.Typ == datum.TypeFloat64 && math.IsNaN(d.F):
				return true
			case d.Typ == datum.TypeString:
				if f, err := strconv.ParseFloat(d.S, 64); err == nil && math.IsNaN(f) {
					return true
				}
			}
		}
	}
	return false
}
