// Package datum defines the scalar value model shared by the columnar
// storage layer (internal/orc) and the query engine (internal/sqlengine):
// typed nullable scalars with total ordering within a type.
package datum

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates column/value types.
type Type uint8

// Supported types. TypeString doubles as the storage type for raw JSON
// columns, matching how warehouses store JSON as string columns.
const (
	TypeInt64 Type = iota
	TypeFloat64
	TypeString
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "STRING"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Datum is one nullable scalar value. The zero value is a NULL of type
// Int64; use the constructors for anything else.
type Datum struct {
	Typ  Type
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// Null returns a typed NULL.
func NullOf(t Type) Datum { return Datum{Typ: t, Null: true} }

// Int returns an int64 datum.
func Int(v int64) Datum { return Datum{Typ: TypeInt64, I: v} }

// Float returns a float64 datum.
func Float(v float64) Datum { return Datum{Typ: TypeFloat64, F: v} }

// String returns a string datum.
func Str(v string) Datum { return Datum{Typ: TypeString, S: v} }

// Bool returns a boolean datum.
func Bool(v bool) Datum { return Datum{Typ: TypeBool, B: v} }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.Null }

// AsFloat converts numeric datums to float64 (strings parse when possible).
// NULL and unparsable strings return (0, false). A string converts exactly as
// strconv.ParseFloat converts it, bit for bit (FuzzAsFloat).
func (d Datum) AsFloat() (float64, bool) {
	if d.Null {
		return 0, false
	}
	switch d.Typ {
	case TypeInt64:
		return float64(d.I), true
	case TypeFloat64:
		return d.F, true
	case TypeString:
		if f, ok := smallInt(d.S); ok {
			return f, true
		}
		f, err := strconv.ParseFloat(d.S, 64)
		return f, err == nil
	case TypeBool:
		if d.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// smallInt converts s when it is an optionally signed run of one to 15
// decimal digits: below 2^53, so float64 holds it exactly and ParseFloat
// would return the same bits. Cached numeric paths are mostly such runs, and
// this skips ParseFloat's general grammar for them. "-0" (any run of zeros
// after a minus) is left to ParseFloat, which keeps its sign.
func smallInt(s string) (float64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 || len(s) > 15 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int64(c)
	}
	if neg {
		if n == 0 {
			return 0, false
		}
		return -float64(n), true
	}
	return float64(n), true
}

// AsString renders the datum as SQL output text; NULL renders as "NULL".
func (d Datum) AsString() string {
	if d.Null {
		return "NULL"
	}
	switch d.Typ {
	case TypeInt64:
		return strconv.FormatInt(d.I, 10)
	case TypeFloat64:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case TypeString:
		return d.S
	case TypeBool:
		if d.B {
			return "true"
		}
		return "false"
	}
	return ""
}

// AppendTo appends the datum's AsString rendering to buf without the
// intermediate string allocation. Hot key-building paths (join keys, group
// keys, DISTINCT keys) use this with a reusable buffer.
func (d Datum) AppendTo(buf []byte) []byte {
	if d.Null {
		return append(buf, "NULL"...)
	}
	switch d.Typ {
	case TypeInt64:
		return strconv.AppendInt(buf, d.I, 10)
	case TypeFloat64:
		return strconv.AppendFloat(buf, d.F, 'g', -1, 64)
	case TypeString:
		return append(buf, d.S...)
	case TypeBool:
		if d.B {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	}
	return buf
}

// Compare orders two datums. NULL sorts before every non-NULL value.
// Numeric types compare numerically even across Int64/Float64; other
// cross-type comparisons compare by rendered text, which keeps ORDER BY
// total. The result is -1, 0, or 1.
func Compare(a, b Datum) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if a.Typ == b.Typ {
		switch a.Typ {
		case TypeInt64:
			return cmpOrdered(a.I, b.I)
		case TypeFloat64:
			return cmpOrdered(a.F, b.F)
		case TypeString:
			return cmpOrdered(a.S, b.S)
		case TypeBool:
			return cmpOrdered(b2i(a.B), b2i(b.B))
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return cmpOrdered(af, bf)
	}
	return cmpOrdered(a.AsString(), b.AsString())
}

// Equal reports whether two datums compare equal (NULLs are equal to each
// other here; SQL three-valued logic is handled by the expression layer).
func Equal(a, b Datum) bool { return Compare(a, b) == 0 }

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Coerce converts d to the target type when a sensible conversion exists;
// otherwise it returns a NULL of the target type. NULL stays NULL. To BIGINT,
// integer text converts exactly, and any other number truncates toward zero
// unless it is not finite or lies outside the BIGINT range, which is NULL.
func Coerce(d Datum, t Type) Datum {
	if d.Null {
		return NullOf(t)
	}
	if d.Typ == t {
		return d
	}
	switch t {
	case TypeInt64:
		// Only signs and digits reach ParseInt, so a decimal or an exponent
		// pays for no failed parse's error. A lone sign, "+-5" or a run
		// beyond BIGINT fails it and allocates one, then the float path.
		if s := d.S; d.Typ == TypeString && s != "" && strings.TrimLeft(strings.TrimLeft(s, "+-"), "0123456789") == "" {
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				return Int(i)
			}
		}
		// -2^63 <= f < 2^63 holds of no NaN or infinity: those are NULL.
		if f, ok := d.AsFloat(); ok && f >= -(1<<63) && f < 1<<63 {
			return Int(int64(f))
		}
	case TypeFloat64:
		if f, ok := d.AsFloat(); ok {
			return Float(f)
		}
	case TypeString:
		return Str(d.AsString())
	case TypeBool:
		switch d.Typ {
		case TypeInt64:
			return Bool(d.I != 0)
		case TypeFloat64:
			return Bool(d.F != 0)
		case TypeString:
			if d.S == "true" {
				return Bool(true)
			}
			if d.S == "false" {
				return Bool(false)
			}
		}
	}
	return NullOf(t)
}
