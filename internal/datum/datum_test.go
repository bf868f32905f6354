package datum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		d   Datum
		typ Type
		str string
	}{
		{Int(42), TypeInt64, "42"},
		{Float(2.5), TypeFloat64, "2.5"},
		{Str("hi"), TypeString, "hi"},
		{Bool(true), TypeBool, "true"},
		{Bool(false), TypeBool, "false"},
		{NullOf(TypeString), TypeString, "NULL"},
	}
	for _, c := range cases {
		if c.d.Typ != c.typ {
			t.Errorf("%+v type = %v", c.d, c.d.Typ)
		}
		if got := c.d.AsString(); got != c.str {
			t.Errorf("%+v AsString = %q, want %q", c.d, got, c.str)
		}
	}
}

func TestAsFloat(t *testing.T) {
	cases := []struct {
		d    Datum
		want float64
		ok   bool
	}{
		{Int(-3), -3, true},
		{Float(1.5), 1.5, true},
		{Str("2.25"), 2.25, true},
		{Str("abc"), 0, false},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{NullOf(TypeInt64), 0, false},
	}
	for _, c := range cases {
		got, ok := c.d.AsFloat()
		if got != c.want || ok != c.ok {
			t.Errorf("%+v AsFloat = (%v, %v), want (%v, %v)", c.d, got, ok, c.want, c.ok)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	if Compare(Int(1), Int(2)) >= 0 || Compare(Int(2), Int(1)) <= 0 || Compare(Int(2), Int(2)) != 0 {
		t.Error("int ordering broken")
	}
	if Compare(Str("a"), Str("b")) >= 0 {
		t.Error("string ordering broken")
	}
	if Compare(Bool(false), Bool(true)) >= 0 {
		t.Error("bool ordering broken")
	}
	// NULL sorts first.
	if Compare(NullOf(TypeInt64), Int(-1000)) >= 0 {
		t.Error("NULL should sort before values")
	}
	if Compare(NullOf(TypeInt64), NullOf(TypeString)) != 0 {
		t.Error("NULLs compare equal")
	}
	// Cross-type numeric.
	if Compare(Int(2), Float(2.5)) >= 0 || Compare(Float(3), Int(2)) <= 0 {
		t.Error("cross-type numeric comparison broken")
	}
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("2 should equal 2.0")
	}
	// Non-numeric cross-type falls back to text.
	if Compare(Str("abc"), Int(5)) == 0 {
		t.Error("text fallback broken")
	}
	if !Equal(Int(3), Int(3)) || Equal(Int(3), Int(4)) {
		t.Error("Equal broken")
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in   Datum
		to   Type
		want Datum
	}{
		{Str("42"), TypeInt64, Int(42)},
		{Str("2.5"), TypeFloat64, Float(2.5)},
		{Int(3), TypeFloat64, Float(3)},
		{Float(3.9), TypeInt64, Int(3)},
		{Int(7), TypeString, Str("7")},
		{Int(0), TypeBool, Bool(false)},
		{Int(5), TypeBool, Bool(true)},
		{Str("true"), TypeBool, Bool(true)},
		{Str("false"), TypeBool, Bool(false)},
		{Bool(true), TypeString, Str("true")},
	}
	for _, c := range cases {
		got := Coerce(c.in, c.to)
		if got.Null || Compare(got, c.want) != 0 || got.Typ != c.to {
			t.Errorf("Coerce(%+v, %v) = %+v, want %+v", c.in, c.to, got, c.want)
		}
	}
	// Impossible coercions become NULL of the target type.
	if got := Coerce(Str("xyz"), TypeInt64); !got.Null || got.Typ != TypeInt64 {
		t.Errorf("bad coercion = %+v", got)
	}
	if got := Coerce(Str("maybe"), TypeBool); !got.Null {
		t.Errorf("bad bool coercion = %+v", got)
	}
	// NULL stays NULL.
	if got := Coerce(NullOf(TypeInt64), TypeString); !got.Null || got.Typ != TypeString {
		t.Errorf("null coercion = %+v", got)
	}
	// Identity.
	if got := Coerce(Int(5), TypeInt64); got != Int(5) {
		t.Errorf("identity coercion = %+v", got)
	}
	// Integer text converts exactly, not through float64; a value that is
	// not finite or lies outside the BIGINT range is NULL.
	for in, want := range map[string]int64{
		"9007199254740993":     9007199254740993,
		"-9223372036854775808": math.MinInt64,
		"+7":                   7,
		"-0":                   0,
		"1e3":                  1000,
		"-2.9":                 -2,
	} {
		if got := Coerce(Str(in), TypeInt64); got != Int(want) {
			t.Errorf("Coerce(%q, BIGINT) = %+v, want %d", in, got, want)
		}
	}
	for _, in := range []Datum{Str("1e30"), Str("9223372036854775808"), Str("NaN"), Str("-Inf"), Float(math.Inf(1)), Float(-1e19)} {
		if got := Coerce(in, TypeInt64); !got.Null || got.Typ != TypeInt64 {
			t.Errorf("Coerce(%+v, BIGINT) = %+v, want NULL", in, got)
		}
	}
	// A number that is not integer text never reaches strconv.ParseInt,
	// whose failure allocates its error.
	for _, in := range []string{"1234.5", "-2.9", "1e3", "1e30"} {
		if n := testing.AllocsPerRun(10, func() { Coerce(Str(in), TypeInt64) }); n != 0 {
			t.Errorf("Coerce(%q, BIGINT) allocates %v times, want 0", in, n)
		}
	}
}

func TestTypeString(t *testing.T) {
	want := map[Type]string{
		TypeInt64: "BIGINT", TypeFloat64: "DOUBLE", TypeString: "STRING", TypeBool: "BOOLEAN",
	}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%v.String() = %q", typ, typ.String())
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Error("unknown type string")
	}
}

func TestNaNHandling(t *testing.T) {
	if Compare(Float(math.NaN()), Float(math.NaN())) != 0 {
		// Compare uses cmpOrdered: NaN < NaN is false, NaN > NaN is false → 0.
		t.Error("NaN should compare equal to itself for sort totality")
	}
}

// Property: Compare is antisymmetric and Compare(x, x) == 0 over random
// int/float/string datums.
func TestQuickCompareAntisymmetric(t *testing.T) {
	gen := func(seed int64) Datum {
		switch seed % 4 {
		case 0:
			return Int(seed % 1000)
		case 1:
			return Float(float64(seed%1000) / 8)
		case 2:
			return Str(string(rune('a'+seed%26)) + "x")
		default:
			return NullOf(TypeInt64)
		}
	}
	f := func(a, b int64) bool {
		x, y := gen(a), gen(b)
		if Compare(x, x) != 0 || Compare(y, y) != 0 {
			return false
		}
		return Compare(x, y) == -Compare(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
