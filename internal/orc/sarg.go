package orc

import (
	"math"
	"strings"

	"repro/internal/datum"
)

// CompareOp enumerates SARG comparison operators.
type CompareOp uint8

// Supported operators.
const (
	OpEQ CompareOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?"
	}
}

// Predicate is one column-vs-literal comparison usable as a search argument.
type Predicate struct {
	Column string
	Op     CompareOp
	Value  datum.Datum
}

// SARG is a conjunction of predicates. A row group may be skipped when any
// predicate proves no row in the group can match.
type SARG struct {
	Predicates []Predicate
}

// NewSARG builds a SARG from predicates; nil if none.
func NewSARG(preds ...Predicate) *SARG {
	if len(preds) == 0 {
		return nil
	}
	return &SARG{Predicates: preds}
}

// String renders the SARG for diagnostics.
func (s *SARG) String() string {
	if s == nil || len(s.Predicates) == 0 {
		return "true"
	}
	parts := make([]string, len(s.Predicates))
	for i, p := range s.Predicates {
		parts[i] = p.Column + " " + p.Op.String() + " " + p.Value.AsString()
	}
	return strings.Join(parts, " AND ")
}

// mayMatch reports whether a row group with the given per-column stats could
// contain a matching row. Missing columns and all-null columns cannot match
// an equality/range predicate (SQL comparisons with NULL are not true).
func (s *SARG) mayMatch(schema Schema, stats []ColumnStats) bool {
	if s == nil {
		return true
	}
	for _, p := range s.Predicates {
		ci := schema.ColumnIndex(p.Column)
		if ci < 0 {
			// Unknown column: cannot prune safely.
			continue
		}
		st := stats[ci]
		if !st.HasValues {
			// Every value is NULL; comparison can never be true.
			return false
		}
		if !predicateMayMatch(schema.Columns[ci].Type, p, st) {
			return false
		}
	}
	return true
}

// predicateMayMatch evaluates one predicate against min/max statistics.
func predicateMayMatch(t datum.Type, p Predicate, st ColumnStats) bool {
	var minD, maxD datum.Datum
	switch t {
	case datum.TypeInt64:
		minD, maxD = datum.Int(st.MinI), datum.Int(st.MaxI)
	case datum.TypeFloat64:
		if math.IsNaN(st.MinF) || math.IsNaN(st.MaxF) {
			return true // the group holds a NaN (encodeColumn)
		}
		minD, maxD = datum.Float(st.MinF), datum.Float(st.MaxF)
	case datum.TypeString:
		// Engines compare numeric-looking strings numerically (the
		// get_json_object convention), so a numeric literal against a
		// string column may prune only via the numeric extremes — and only
		// when every value in the group is numeric. Lexicographic extremes
		// would prune unsoundly ("9" > "10").
		if p.Value.Typ == datum.TypeInt64 || p.Value.Typ == datum.TypeFloat64 {
			if !st.AllNumeric || math.IsNaN(st.MinNum) || math.IsNaN(st.MaxNum) {
				return true
			}
			return rangeMayMatch(p.Op, datum.Coerce(p.Value, datum.TypeFloat64),
				datum.Float(st.MinNum), datum.Float(st.MaxNum))
		}
		minD, maxD = datum.Str(st.MinS), datum.Str(st.MaxS)
	case datum.TypeBool:
		switch p.Op {
		case OpEQ:
			want := datum.Coerce(p.Value, datum.TypeBool)
			if want.Null {
				return false
			}
			if want.B {
				return st.HasTrue
			}
			return st.HasFalse
		case OpNE:
			want := datum.Coerce(p.Value, datum.TypeBool)
			if want.Null {
				return false
			}
			if want.B {
				return st.HasFalse
			}
			return st.HasTrue
		default:
			return true
		}
	}
	v := datum.Coerce(p.Value, t)
	if v.Null {
		// Coercion failed (e.g. string literal vs int column); be safe.
		return true
	}
	return rangeMayMatch(p.Op, v, minD, maxD)
}

// rangeMayMatch decides whether any value in [minD, maxD] can satisfy
// (value op v).
func rangeMayMatch(op CompareOp, v, minD, maxD datum.Datum) bool {
	cmpMin := datum.Compare(v, minD) // <0: v below group; 0: equal; >0: v above min
	cmpMax := datum.Compare(v, maxD)
	switch op {
	case OpEQ:
		return cmpMin >= 0 && cmpMax <= 0
	case OpNE:
		// Only prunable when every value equals v (min == max == v).
		return !(cmpMin == 0 && cmpMax == 0)
	case OpLT:
		// Some value < v iff min < v.
		return cmpMin > 0
	case OpLE:
		return cmpMin >= 0
	case OpGT:
		// Some value > v iff max > v.
		return cmpMax < 0
	case OpGE:
		return cmpMax <= 0
	}
	return true
}

// EvalRow evaluates the SARG exactly against a full row (used by tests and
// by readers that re-check rows after group-level pruning). NULL comparisons
// are false.
func (s *SARG) EvalRow(schema Schema, row []datum.Datum) bool {
	if s == nil {
		return true
	}
	for _, p := range s.Predicates {
		ci := schema.ColumnIndex(p.Column)
		if ci < 0 || ci >= len(row) {
			return false
		}
		d := row[ci]
		if d.Null || p.Value.Null {
			return false
		}
		c := datum.Compare(d, p.Value)
		ok := false
		switch p.Op {
		case OpEQ:
			ok = c == 0
		case OpNE:
			ok = c != 0
		case OpLT:
			ok = c < 0
		case OpLE:
			ok = c <= 0
		case OpGT:
			ok = c > 0
		case OpGE:
			ok = c >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}
