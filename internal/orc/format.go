// Package orc implements the columnar file format the warehouse stores
// tables in, modeled on Apache ORC's structure as the paper uses it:
//
//   - a file contains one or more stripes (size-targeted, default 64 MB in
//     real deployments, scaled down here);
//   - a stripe contains row groups of up to 10,000 rows;
//   - every column in every row group carries min/max/null statistics;
//   - readers evaluate Search ARGuments (SARGs) against those statistics to
//     skip entire row groups.
//
// The paper's predicate-pushdown optimization (§IV-F) shares the row-group
// skip array computed by the CacheReader with the PrimaryReader; Cursor
// exposes that exchange (IntersectMask, or RowGroupMask / SetRowGroupMask
// for a mask of the caller's) and the Value Combiner restricts it to
// single-stripe files exactly as the paper does.
package orc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/datum"
)

// Magic marks the head and tail of every file.
const Magic = "ORCG"

// DefaultRowGroupRows matches the paper's row group size.
const DefaultRowGroupRows = 10000

// DefaultStripeTargetBytes is the scaled-down stripe size target. Real ORC
// defaults to 64MB; the simulation uses 8MB so multi-stripe behaviour is
// testable without huge files.
const DefaultStripeTargetBytes = 8 << 20

// Column describes one column of the schema.
type Column struct {
	Name string
	Type datum.Type
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
}

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColumnStats summarizes one column within one row group.
type ColumnStats struct {
	NullCount int64
	HasValues bool
	// Min/Max hold the extremes of non-null values; their meaning depends
	// on the column type. String extremes are truncated to statsMaxString
	// bytes (truncated Max is padded up so it stays an upper bound).
	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string
	HasTrue    bool
	HasFalse   bool
	// AllNumeric is maintained for string columns: true when every non-null
	// value parses as a float, in which case MinNum/MaxNum carry numeric
	// extremes. SQL engines compare numeric-looking strings numerically
	// (get_json_object returns strings), so numeric SARGs on string columns
	// can only prune soundly against numeric statistics.
	AllNumeric     bool
	MinNum, MaxNum float64
}

const statsMaxString = 64

// rowGroupMeta records where a row group's encoded bytes live inside its
// stripe, plus its statistics.
type rowGroupMeta struct {
	offset int64 // relative to stripe start
	length int64
	rows   int32
	stats  []ColumnStats
}

// stripeMeta records a stripe's span within the file.
type stripeMeta struct {
	offset    int64 // absolute file offset
	length    int64
	rows      int64
	rowGroups []rowGroupMeta
}

var (
	// ErrCorrupt reports an unreadable file.
	ErrCorrupt = errors.New("orc: corrupt file")
	// ErrColumnMismatch reports a row that does not match the schema.
	ErrColumnMismatch = errors.New("orc: row does not match schema")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ---- low-level encode helpers ----

type encoder struct{ buf []byte }

func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func encodeStats(e *encoder, t datum.Type, st ColumnStats) {
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

func decodeStats(d *decoder, t datum.Type) ColumnStats {
	var st ColumnStats
	st.NullCount = d.i64()
	st.HasValues = d.bool()
	if !st.HasValues {
		return st
	}
	switch t {
	case datum.TypeInt64:
		st.MinI = d.i64()
		st.MaxI = d.i64()
	case datum.TypeFloat64:
		st.MinF = d.f64()
		st.MaxF = d.f64()
	case datum.TypeString:
		st.MinS = d.str()
		st.MaxS = d.str()
		st.AllNumeric = d.bool()
		if st.AllNumeric {
			st.MinNum = d.f64()
			st.MaxNum = d.f64()
		}
	case datum.TypeBool:
		st.HasTrue = d.bool()
		st.HasFalse = d.bool()
	}
	return st
}
