package datum

import (
	"math"
	"strconv"
	"testing"
)

// FuzzAsFloat is AsFloat's differential oracle: for every string, the value
// bits and the ok flag equal strconv.ParseFloat's, whether the small-integer
// path or ParseFloat itself produced them. The seeds sit on both sides of
// each of that path's edges: no digits, a lone sign, the signed zero, a plus
// sign, leading zeros, the separators and prefixes ParseFloat rejects or
// accepts, a space, and the longest run it takes (15 digits) beside one it
// leaves to ParseFloat (16, which float64 cannot hold exactly).
func FuzzAsFloat(f *testing.F) {
	for _, s := range []string{
		"", "-", "-0", "+1", "007", "1_000", "0x10", " 1",
		"999999999999999", "9999999999999999",
		"+", "-007", "+0", "-00", "1e3", "NaN", "1.5", "12a",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := Str(s).AsFloat()
		want, err := strconv.ParseFloat(s, 64)
		if ok != (err == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AsFloat(%q) = (%v [%016x], %v), ParseFloat = (%v [%016x], %v)",
				s, got, math.Float64bits(got), ok, want, math.Float64bits(want), err)
		}
	})
}

// FuzzCoerceBigint holds a string's BIGINT cast to strconv.ParseInt where
// that parses it.
func FuzzCoerceBigint(f *testing.F) {
	for _, s := range []string{"0", "-0", "+12", "007", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "00000000000000000000042", "1e3", "", "-", "+-5", "12a", "1234.5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := Coerce(Str(s), TypeInt64)
		if want, err := strconv.ParseInt(s, 10, 64); err == nil && got != Int(want) {
			t.Errorf("Coerce(%q, BIGINT) = %+v, want %d", s, got, want)
		}
	})
}
