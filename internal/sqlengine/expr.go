package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/datum"
)

// RowSchema names the columns of a row stream. Columns may carry a
// qualifier so joins can disambiguate t1.x from t2.x.
type RowSchema struct {
	Cols []RowCol
}

// RowCol is one column of a RowSchema.
type RowCol struct {
	Qualifier string
	Name      string
	// Path is set on a get_json_object column: the column holds the value of
	// this canonical path in document column Name. A call of that column and
	// path binds to it; a reference to Name never does.
	Path string
	Type datum.Type
	// Extracted marks a Path column the scan's extraction fills (its Extract
	// list), as opposed to one read from a cache column: every read of it is
	// a get_json_object call.
	Extracted bool
}

// Index resolves a (qualifier, name) reference. An empty qualifier matches
// any column with the name, erroring on ambiguity.
func (s RowSchema) Index(qualifier, name string) (int, error) {
	return s.index(qualifier, name, "")
}

// index resolves a column reference (path "") or the get_json_object column
// of a document column and canonical path. Paths compare exactly: JSON keys
// are case-sensitive.
func (s RowSchema) index(qualifier, name, path string) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if c.Path != path || !strings.EqualFold(c.Name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(c.Qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sql: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		ref := name
		if qualifier != "" {
			ref = qualifier + "." + name
		}
		if path != "" {
			ref = "get_json_object(" + ref + ", '" + path + "')"
		}
		return -1, fmt.Errorf("sql: unknown column %q", ref)
	}
	return found, nil
}

// Names returns the bare column names in order.
func (s RowSchema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Bind resolves every column reference in e against schema, storing row
// indexes in the nodes. Aggregate nodes are bound by bindAggregates
// instead; encountering one here is an error.
func Bind(e Expr, schema RowSchema) error {
	var firstErr error
	Walk(e, func(n Expr) {
		switch node := n.(type) {
		case *ColumnRef:
			idx, err := schema.Index(node.Qualifier, node.Name)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			node.index = idx
		case *ExtractRef:
			c := node.Call.Column
			idx, err := schema.index(c.Qualifier, c.Name, node.Call.Path.Canonical())
			if err != nil && firstErr == nil {
				firstErr = err
			}
			node.index = idx
			node.extracted = idx >= 0 && schema.Cols[idx].Extracted
		case *FuncCall:
			node.op = funcOpOf(node.Name)
		case *Aggregate:
			if firstErr == nil {
				firstErr = fmt.Errorf("sql: aggregate %s not allowed here", node.String())
			}
		}
	})
	return firstErr
}

// arith applies an arithmetic operator: NULL when either side is NULL or
// not a number, or the divisor is zero. Two BIGINTs give their exact BIGINT
// result, except a division, and a result that overflows BIGINT, which give
// the DOUBLE result; any other pair gives the DOUBLE result.
func arith(op BinaryOp, l, r datum.Datum) datum.Datum {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok || rf == 0 && (op == OpDiv || op == OpMod) {
		return datum.NullOf(datum.TypeFloat64)
	}
	if l.Typ == datum.TypeInt64 && r.Typ == datum.TypeInt64 {
		if v, ok := intArith(op, l.I, r.I); ok {
			return datum.Int(v)
		}
	}
	switch op {
	case OpAdd:
		return datum.Float(lf + rf)
	case OpSub:
		return datum.Float(lf - rf)
	case OpMul:
		return datum.Float(lf * rf)
	case OpDiv:
		return datum.Float(lf / rf)
	}
	return datum.Float(math.Mod(lf, rf))
}

// intArith is a op b in int64, and whether it is exact: false for a division
// and on overflow. b is not zero for OpMod.
func intArith(op BinaryOp, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		s := a + b
		return s, (s > a) == (b > 0)
	case OpSub:
		s := a - b
		return s, (s < a) == (b > 0)
	case OpMul:
		p := a * b
		return p, a == 0 || p/a == b && !(a == -1 && b == math.MinInt64)
	case OpMod:
		return a % b, true
	}
	return 0, false
}

// holds reports whether comparison op is true of a three-way result c.
func (op BinaryOp) holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// Mirror is the comparison that holds of (r, l) when op holds of (l, r): the
// operator to use when the operands of a comparison trade places. Any other
// operator is returned as it is.
func (op BinaryOp) Mirror() BinaryOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// compareForPredicate compares with numeric preference: get_json_object
// returns strings, but predicates like path > 10000 should compare
// numerically when both sides look numeric — matching Hive/Spark's implicit
// cast of the string side of a comparison with a numeric literal.
func compareForPredicate(l, r datum.Datum) int {
	if l.Typ != r.Typ {
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if lok && rok {
			return cmpFloat(lf, rf)
		}
	}
	return datum.Compare(l, r)
}

// funcOp is a scalar function resolved from its name. The zero value marks a
// call that was never bound.
type funcOp uint8

const (
	fnUnbound funcOp = iota
	fnUnknown
	fnConcat
	fnLength
	fnUpper
	fnLower
	fnAbs
	fnCastDouble
	fnCastBigint
)

// funcOpOf resolves a lowercase function name.
func funcOpOf(name string) funcOp {
	switch name {
	case "concat":
		return fnConcat
	case "length":
		return fnLength
	case "upper":
		return fnUpper
	case "lower":
		return fnLower
	case "abs":
		return fnAbs
	case "cast_double":
		return fnCastDouble
	case "cast_bigint":
		return fnCastBigint
	}
	return fnUnknown
}

// opcode returns the call's function: resolved at bind time, or from its
// name for a call never bound.
func (fc *FuncCall) opcode() funcOp {
	if fc.op == fnUnbound {
		return funcOpOf(fc.Name)
	}
	return fc.op
}

// scalarFunc applies a scalar function to row i of its arguments' values:
// concat to any number of them, every other function to exactly one.
func scalarFunc(op funcOp, args []vec, i int) datum.Datum {
	if op == fnConcat {
		var sb strings.Builder
		for k := range args {
			v := args[k].at(i)
			if v.Null {
				return datum.NullOf(datum.TypeString)
			}
			sb.WriteString(v.AsString())
		}
		return datum.Str(sb.String())
	}
	if len(args) != 1 {
		return datum.NullOf(datum.TypeString)
	}
	switch arg := args[0].at(i); op {
	case fnLength:
		if !arg.Null {
			return datum.Int(int64(len(arg.AsString())))
		}
	case fnUpper:
		if !arg.Null {
			return datum.Str(strings.ToUpper(arg.AsString()))
		}
	case fnLower:
		if !arg.Null {
			return datum.Str(strings.ToLower(arg.AsString()))
		}
	case fnAbs:
		if arg.Typ == datum.TypeInt64 && !arg.Null && arg.I != math.MinInt64 {
			return datum.Int(max(arg.I, -arg.I))
		}
		if f, ok := arg.AsFloat(); ok {
			return datum.Float(math.Abs(f))
		}
	case fnCastDouble:
		return datum.Coerce(arg, datum.TypeFloat64)
	case fnCastBigint:
		return datum.Coerce(arg, datum.TypeInt64)
	}
	return datum.NullOf(datum.TypeString)
}

// likeMatch implements SQL LIKE semantics: '%' matches any (possibly
// empty) run, '_' exactly one character, everything else literally.
func likeMatch(s, pattern string) bool {
	// Iterative matcher with single backtrack point for '%', the classic
	// wildcard algorithm.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// CountExprNodes counts nodes in an expression tree (plan-time metering).
func CountExprNodes(e Expr) int64 {
	var n int64
	Walk(e, func(Expr) { n++ })
	return n
}
