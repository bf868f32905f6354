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

// EvalContext carries per-partition evaluation state.
type EvalContext struct {
	// Calls counts the get_json_object calls evaluated: the reads of an
	// extracted column. Its owner folds it into ParseMeter.Calls.
	Calls int64
}

// Eval evaluates a bound expression over a row.
func Eval(e Expr, row []datum.Datum, ctx *EvalContext) datum.Datum {
	switch node := e.(type) {
	case *Literal:
		return node.Value
	case *ColumnRef:
		if node.index < 0 || node.index >= len(row) {
			return datum.NullOf(datum.TypeString)
		}
		return row[node.index]
	case *ExtractRef:
		if node.index < 0 || node.index >= len(row) {
			return datum.NullOf(datum.TypeString)
		}
		if node.extracted {
			ctx.Calls++
		}
		return row[node.index]
	case *keyRef:
		if node.index < 0 || node.index >= len(row) {
			return datum.NullOf(datum.TypeString)
		}
		return row[node.index]
	case *Binary:
		return evalBinary(node, row, ctx)
	case *Not:
		v := Eval(node.Inner, row, ctx)
		b := datum.Coerce(v, datum.TypeBool)
		if b.Null {
			return datum.NullOf(datum.TypeBool)
		}
		return datum.Bool(!b.B)
	case *IsNull:
		v := Eval(node.Inner, row, ctx)
		if node.Negate {
			return datum.Bool(!v.Null)
		}
		return datum.Bool(v.Null)
	case *Like:
		v := Eval(node.Inner, row, ctx)
		if v.Null {
			return datum.NullOf(datum.TypeBool)
		}
		return datum.Bool(likeMatch(v.AsString(), node.Pattern))
	case *FuncCall:
		return evalFunc(node, row, ctx)
	case *Aggregate:
		// Bound post-aggregation: the aggregate's value sits in the row at
		// its computed offset.
		if node.aggIndex >= 0 && node.aggIndex < len(row) {
			return row[node.aggIndex]
		}
		return datum.NullOf(datum.TypeFloat64)
	default:
		return datum.NullOf(datum.TypeString)
	}
}

// evalBinary implements SQL three-valued logic for AND/OR and NULL
// propagation for arithmetic/comparisons.
func evalBinary(b *Binary, row []datum.Datum, ctx *EvalContext) datum.Datum {
	switch b.Op {
	case OpAnd, OpOr:
		l := datum.Coerce(Eval(b.Left, row, ctx), datum.TypeBool)
		if b.Op == OpAnd {
			if !l.Null && !l.B {
				return datum.Bool(false)
			}
			r := datum.Coerce(Eval(b.Right, row, ctx), datum.TypeBool)
			if !r.Null && !r.B {
				return datum.Bool(false)
			}
			if l.Null || r.Null {
				return datum.NullOf(datum.TypeBool)
			}
			return datum.Bool(true)
		}
		if !l.Null && l.B {
			return datum.Bool(true)
		}
		r := datum.Coerce(Eval(b.Right, row, ctx), datum.TypeBool)
		if !r.Null && r.B {
			return datum.Bool(true)
		}
		if l.Null || r.Null {
			return datum.NullOf(datum.TypeBool)
		}
		return datum.Bool(false)
	}

	l := Eval(b.Left, row, ctx)
	r := Eval(b.Right, row, ctx)
	if l.Null || r.Null {
		if b.Op >= OpEq && b.Op <= OpGe {
			return datum.NullOf(datum.TypeBool)
		}
		return datum.NullOf(datum.TypeFloat64)
	}
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return datum.Bool(b.Op.holds(compareForPredicate(l, r)))
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return datum.NullOf(datum.TypeFloat64)
		}
		var out float64
		switch b.Op {
		case OpAdd:
			out = lf + rf
		case OpSub:
			out = lf - rf
		case OpMul:
			out = lf * rf
		case OpDiv:
			if rf == 0 {
				return datum.NullOf(datum.TypeFloat64)
			}
			out = lf / rf
		case OpMod:
			if rf == 0 {
				return datum.NullOf(datum.TypeFloat64)
			}
			out = math.Mod(lf, rf)
		}
		// Keep integer arithmetic integral when both sides are ints.
		if l.Typ == datum.TypeInt64 && r.Typ == datum.TypeInt64 && b.Op != OpDiv && out == math.Trunc(out) {
			return datum.Int(int64(out))
		}
		return datum.Float(out)
	}
	return datum.NullOf(datum.TypeString)
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
			switch {
			case lf < rf:
				return -1
			case lf > rf:
				return 1
			default:
				return 0
			}
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

// evalFunc evaluates a scalar function call. It runs once per row per call
// site, so the arguments are evaluated in place, never gathered into a slice.
// Every argument is evaluated whatever the arity, so get_json_object calls
// are metered the same for a call that then yields NULL.
func evalFunc(fc *FuncCall, row []datum.Datum, ctx *EvalContext) datum.Datum {
	op := fc.opcode()
	if op == fnConcat {
		var sb strings.Builder
		anyNull := false
		for _, a := range fc.Args {
			v := Eval(a, row, ctx)
			if v.Null {
				anyNull = true
			} else if !anyNull {
				sb.WriteString(v.AsString())
			}
		}
		if anyNull {
			return datum.NullOf(datum.TypeString)
		}
		return datum.Str(sb.String())
	}
	// Every other function is unary.
	var arg datum.Datum
	for _, a := range fc.Args {
		arg = Eval(a, row, ctx)
	}
	if len(fc.Args) != 1 {
		return datum.NullOf(datum.TypeString)
	}
	switch op {
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
		if f, ok := arg.AsFloat(); ok {
			if arg.Typ == datum.TypeInt64 {
				return datum.Int(int64(math.Abs(f)))
			}
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

// Truthy reports whether a predicate result is SQL-true.
func Truthy(d datum.Datum) bool {
	b := datum.Coerce(d, datum.TypeBool)
	return !b.Null && b.B
}

// CountExprNodes counts nodes in an expression tree (plan-time metering).
func CountExprNodes(e Expr) int64 {
	var n int64
	Walk(e, func(Expr) { n++ })
	return n
}
