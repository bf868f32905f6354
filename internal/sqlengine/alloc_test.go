package sqlengine

import (
	"testing"

	"repro/internal/datum"
)

// TestScalarFunctionsDoNotAllocate pins evalFunc's cost on the cached read
// path, where cast_double(cached_column) runs once per row per call site:
// evaluating the unary functions over a row allocates nothing. (The slice
// of evaluated arguments it used to build was 23 % of hot_cached's bytes.)
func TestScalarFunctionsDoNotAllocate(t *testing.T) {
	schema := RowSchema{Cols: []RowCol{
		{Name: "s", Type: datum.TypeString},
		{Name: "n", Type: datum.TypeInt64},
	}}
	row := []datum.Datum{datum.Str("1234.5"), datum.Int(-42)}
	ctx := &EvalContext{Metrics: &Metrics{}}
	for _, tc := range []struct {
		fn, col string
		want    datum.Datum
	}{
		{"length", "s", datum.Int(6)},
		{"abs", "n", datum.Int(42)},
		{"abs", "s", datum.Float(1234.5)},
		{"cast_double", "s", datum.Float(1234.5)},
		{"cast_bigint", "n", datum.Int(-42)},
		{"cast_double", "n", datum.Float(-42)},
	} {
		call := &FuncCall{Name: tc.fn, Args: []Expr{&ColumnRef{Name: tc.col}}}
		if err := Bind(call, schema); err != nil {
			t.Fatal(err)
		}
		if got := Eval(call, row, ctx); !datum.Equal(got, tc.want) || got.Typ != tc.want.Typ {
			t.Errorf("%s(%s) = %+v, want %+v", tc.fn, tc.col, got, tc.want)
		}
		var sink datum.Datum
		if n := testing.AllocsPerRun(100, func() { sink = Eval(call, row, ctx) }); n != 0 {
			t.Errorf("%s(%s) allocates %v times per row, want 0", tc.fn, tc.col, n)
		}
		_ = sink
	}
}

// TestScalarFunctionArity holds the behaviour the argument slice used to
// give for free: concat takes any number of arguments and is NULL if any is,
// and a unary function called with another arity is NULL.
func TestScalarFunctionArity(t *testing.T) {
	lit := func(s string) Expr { return &Literal{Value: datum.Str(s)} }
	null := &Literal{Value: datum.NullOf(datum.TypeString)}
	ctx := &EvalContext{Metrics: &Metrics{}}
	for _, tc := range []struct {
		call *FuncCall
		want datum.Datum
	}{
		{&FuncCall{Name: "concat"}, datum.Str("")},
		{&FuncCall{Name: "concat", Args: []Expr{lit("a"), lit("b"), lit("c")}}, datum.Str("abc")},
		{&FuncCall{Name: "concat", Args: []Expr{lit("a"), null, lit("c")}}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "length"}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "length", Args: []Expr{lit("a"), lit("bc")}}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "upper", Args: []Expr{lit("ab")}}, datum.Str("AB")},
		{&FuncCall{Name: "lower", Args: []Expr{null}}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "nosuch", Args: []Expr{lit("a")}}, datum.NullOf(datum.TypeString)},
	} {
		got := Eval(tc.call, nil, ctx)
		if got.Null != tc.want.Null || got.Typ != tc.want.Typ || got.S != tc.want.S {
			t.Errorf("%s = %+v, want %+v", tc.call, got, tc.want)
		}
	}
}
