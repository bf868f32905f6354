package sjson

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) *Value {
	t.Helper()
	v, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return v
}

func TestParseScalars(t *testing.T) {
	tests := []struct {
		in   string
		kind Kind
	}{
		{"null", KindNull},
		{"true", KindBool},
		{"false", KindBool},
		{"0", KindNumber},
		{"-12", KindNumber},
		{"3.5", KindNumber},
		{"1e3", KindNumber},
		{"-2.5E-2", KindNumber},
		{`"hello"`, KindString},
		{`""`, KindString},
	}
	for _, tt := range tests {
		v := mustParse(t, tt.in)
		if v.Kind() != tt.kind {
			t.Errorf("Parse(%q).Kind() = %v, want %v", tt.in, v.Kind(), tt.kind)
		}
	}
}

func TestParseNumberValues(t *testing.T) {
	tests := []struct {
		in   string
		want float64
	}{
		{"0", 0},
		{"-0", 0},
		{"42", 42},
		{"-17", -17},
		{"3.25", 3.25},
		{"1e2", 100},
		{"2.5e-1", 0.25},
		{"123456789012345678", 123456789012345680},
	}
	for _, tt := range tests {
		v := mustParse(t, tt.in)
		if v.NumberVal() != tt.want {
			t.Errorf("Parse(%q) = %v, want %v", tt.in, v.NumberVal(), tt.want)
		}
	}
}

func TestIntegerLiteralPreserved(t *testing.T) {
	v := mustParse(t, "123456789012345678901")
	if got := Serialize(v); got != "123456789012345678901" {
		t.Errorf("wide integer serialized as %q, want literal preserved", got)
	}
}

func TestParseStringEscapes(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{`"a\nb"`, "a\nb"},
		{`"a\tb"`, "a\tb"},
		{`"q\""`, `q"`},
		{`"back\\slash"`, `back\slash`},
		{`"sol\/idus"`, "sol/idus"},
		{`"A"`, "A"},
		{`"中文"`, "中文"},
		{`"😀"`, "😀"},
		{`"\b\f\r"`, "\b\f\r"},
	}
	for _, tt := range tests {
		v := mustParse(t, tt.in)
		if v.StringVal() != tt.want {
			t.Errorf("Parse(%s) = %q, want %q", tt.in, v.StringVal(), tt.want)
		}
	}
}

func TestUnpairedSurrogateBecomesReplacement(t *testing.T) {
	v := mustParse(t, `"\ud83d"`)
	if v.StringVal() != "�" {
		t.Errorf("unpaired surrogate = %q, want U+FFFD", v.StringVal())
	}
}

func TestParseObject(t *testing.T) {
	v := mustParse(t, `{"a": 1, "b": "two", "c": [true, null]}`)
	if v.Kind() != KindObject || v.Len() != 3 {
		t.Fatalf("unexpected object: kind=%v len=%d", v.Kind(), v.Len())
	}
	if got := v.Get("a").NumberVal(); got != 1 {
		t.Errorf("a = %v, want 1", got)
	}
	if got := v.Get("b").StringVal(); got != "two" {
		t.Errorf("b = %q, want two", got)
	}
	arr := v.Get("c")
	if arr.Len() != 2 || !arr.Index(0).BoolVal() || !arr.Index(1).IsNull() {
		t.Errorf("c parsed wrong: %s", Serialize(arr))
	}
	if v.Get("missing") != nil {
		t.Error("Get(missing) should be nil")
	}
}

func TestObjectPreservesMemberOrder(t *testing.T) {
	v := mustParse(t, `{"z":1,"a":2,"m":3}`)
	want := []string{"z", "a", "m"}
	got := v.Keys()
	if len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLargeObjectUsesIndex(t *testing.T) {
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`"k`)
		sb.WriteString(string(rune('a' + i%26)))
		sb.WriteString(string(rune('0' + i/26)))
		sb.WriteString(`":`)
		sb.WriteString(FormatFloat(float64(i)))
	}
	sb.WriteByte('}')
	v := mustParse(t, sb.String())
	if v.objIdx == nil {
		t.Fatal("large object should build a key index")
	}
	if got := v.Get("ka1").NumberVal(); got != 26 {
		t.Errorf("ka1 = %v, want 26", got)
	}
}

// TestUnicodeEscapes pins the hand-rolled \u decoder to what strconv gave:
// four hex digits of either case, nothing else, with the short and the
// invalid escape told apart at the offset of the first digit.
func TestUnicodeEscapes(t *testing.T) {
	for in, want := range map[string]string{
		`"\u00e9\u00E9\u00c9"`:  "ééÉ",
		`"\uD83D\uDE00"`:        "😀",
		`"\ud83d\ude00 tail"`:   "😀 tail",
		`"\ud83dx"`:             "\uFFFDx",
		`"\ud83d\n"`:            "\uFFFD\n",
		`"\u0000\uffff\uFFFF"`:  "\x00\uffff\uffff",
		`"pre\u0041\u0062post"`: "preAbpost",
	} {
		if got := mustParse(t, in).StringVal(); got != want {
			t.Errorf("Parse(%s) = %q, want %q", in, got, want)
		}
	}
	for in, want := range map[string]SyntaxError{
		`"\u12"`:         {Offset: 3, Msg: "truncated \\u escape"},
		`"\u123`:         {Offset: 3, Msg: "truncated \\u escape"},
		`"\u12G4"`:       {Offset: 3, Msg: "invalid \\u escape"},
		`"\u+123"`:       {Offset: 3, Msg: "invalid \\u escape"},
		`"\u 123"`:       {Offset: 3, Msg: "invalid \\u escape"},
		`"\u1_23"`:       {Offset: 3, Msg: "invalid \\u escape"},
		`"\ud83d\u12"`:   {Offset: 9, Msg: "truncated \\u escape"},
		`"\ud83d\uzzzz"`: {Offset: 9, Msg: "invalid \\u escape"},
	} {
		_, err := ParseString(in)
		if se, ok := err.(*SyntaxError); !ok || *se != want {
			t.Errorf("ParseString(%s): error %v, want %v", in, err, &want)
		}
	}
	// Every byte in every digit position: accepted exactly when strconv
	// accepts the four characters as base-16, and then with its value.
	for pos := 0; pos < 4; pos++ {
		for c := 0; c < 256; c++ {
			digits := []byte("1aF0")
			digits[pos] = byte(c)
			want, wantErr := strconv.ParseUint(string(digits), 16, 32)
			p := Parser{data: string(digits)}
			got, err := p.parseHexRune()
			if (err != nil) != (wantErr != nil) || (err == nil && got != rune(want)) {
				t.Errorf("\\u%q = (%#x, %v), strconv says (%#x, %v)", digits, got, err, want, wantErr)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "{", "}", "[", "]", `{"a"}`, `{"a":}`, `{"a":1,}`, "[1,]",
		"tru", "nul", "falsey", "01", "1.", "1e", "1e+", `"unterminated`,
		`"bad \q escape"`, `"\u12"`, "{'a':1}", "1 2", `{"a":1} x`,
		"\x01", `["a" "b"]`, `{"a":1 "b":2}`, "+1", ".5", "-",
	}
	for _, in := range bad {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", in)
		}
	}
}

func TestSyntaxErrorHasOffset(t *testing.T) {
	_, err := ParseString(`{"a": bad}`)
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Offset != 6 {
		t.Errorf("offset = %d, want 6", se.Offset)
	}
}

func TestDeepNestingRejected(t *testing.T) {
	in := strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1)
	if _, err := ParseString(in); err == nil {
		t.Fatal("expected nesting-depth error")
	}
	ok := strings.Repeat("[", maxDepth-1) + "1" + strings.Repeat("]", maxDepth-1)
	if _, err := ParseString(ok); err != nil {
		t.Fatalf("depth just under the limit should parse: %v", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		`{"a":1,"b":[true,false,null],"c":{"d":"x\ny","e":-2.5}}`,
		`[]`,
		`{}`,
		`[1,2,3]`,
		`"plain"`,
		`{"unicode":"中文 😀","ctrl":"a\u0001b"}`,
	}
	for _, doc := range docs {
		v1 := mustParse(t, doc)
		out := Serialize(v1)
		v2 := mustParse(t, out)
		if !Equal(v1, v2) {
			t.Errorf("round trip changed value: %s -> %s", doc, out)
		}
	}
}

func TestScalarRendering(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{`"str"`, "str"},
		{"42", "42"},
		{"2.5", "2.5"},
		{"true", "true"},
		{"false", "false"},
		{"null", ""},
		{`[1,2]`, "[1,2]"},
		{`{"a":1}`, `{"a":1}`},
	}
	for _, tt := range tests {
		if got := mustParse(t, tt.in).Scalar(); got != tt.want {
			t.Errorf("Scalar(%s) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestEqual(t *testing.T) {
	a := mustParse(t, `{"x":1,"y":[true]}`)
	b := mustParse(t, `{"y":[true],"x":1}`)
	if !Equal(a, b) {
		t.Error("object member order should not affect Equal")
	}
	c := mustParse(t, `{"x":1,"y":[false]}`)
	if Equal(a, c) {
		t.Error("different values reported equal")
	}
	if !Equal(nil, Null()) {
		t.Error("nil should equal null")
	}
	if Equal(Number(math.NaN()), Number(1)) {
		t.Error("NaN != 1")
	}
	if !Equal(Number(math.NaN()), Number(math.NaN())) {
		t.Error("NaN should equal NaN for cache comparison stability")
	}
}

func TestBuildersAndMutation(t *testing.T) {
	obj := Object().Set("a", Int(1)).Set("b", String("x"))
	obj.Set("a", Int(2))
	if obj.Len() != 2 || obj.Get("a").NumberVal() != 2 {
		t.Errorf("Set replace failed: %s", Serialize(obj))
	}
	arr := Array(Bool(true)).Append(Null())
	if arr.Len() != 2 || !arr.Index(1).IsNull() {
		t.Errorf("Append failed: %s", Serialize(arr))
	}
	if arr.Index(5) != nil || arr.Index(-1) != nil {
		t.Error("out-of-range Index should be nil")
	}
}

func TestSetOnLargeObjectUpdatesIndex(t *testing.T) {
	obj := Object()
	for i := 0; i < 20; i++ {
		obj.Set("key"+FormatFloat(float64(i)), Int(int64(i)))
	}
	obj.Set("key5", Int(500))
	if got := obj.Get("key5").NumberVal(); got != 500 {
		t.Errorf("key5 = %v, want 500", got)
	}
	obj.Set("brand-new", Int(-1))
	if got := obj.Get("brand-new").NumberVal(); got != -1 {
		t.Errorf("brand-new = %v, want -1", got)
	}
}

func TestParseStatsAccumulate(t *testing.T) {
	var p Parser
	if _, err := p.Parse([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse([]byte(`[1,2,3]`)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Documents != 2 {
		t.Errorf("Documents = %d, want 2", st.Documents)
	}
	if st.BytesScanned != int64(len(`{"a":1}`)+len(`[1,2,3]`)) {
		t.Errorf("BytesScanned = %d", st.BytesScanned)
	}
	// {"a":1} -> object + number = 2; [1,2,3] -> array + 3 numbers = 4.
	if st.ValuesBuilt != 6 {
		t.Errorf("ValuesBuilt = %d, want 6", st.ValuesBuilt)
	}
	p.ResetStats()
	if p.Stats() != (ParseStats{}) {
		t.Error("ResetStats did not zero stats")
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindNumber: "number",
		KindString: "string", KindArray: "array", KindObject: "object",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

// Property: serializing any string value and parsing it back yields the same
// string, for arbitrary byte content that is valid UTF-8.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		out := Serialize(String(s))
		v, err := ParseString(out)
		if err != nil {
			return false
		}
		return v.StringVal() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: serialize∘parse is the identity on the value domain for
// arbitrary generated trees.
func TestQuickValueRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		v := randomValue(seed, 4)
		out := Serialize(v)
		v2, err := ParseString(out)
		if err != nil {
			return false
		}
		return Equal(v, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomValue builds a deterministic pseudo-random JSON tree from seed.
func randomValue(seed int64, depth int) *Value {
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	var gen func(d int) *Value
	gen = func(d int) *Value {
		n := next()
		choice := int(uint64(n) % 6)
		if d <= 0 && choice >= 4 {
			choice = int(uint64(n) % 4)
		}
		switch choice {
		case 0:
			return Null()
		case 1:
			return Bool(n&1 == 0)
		case 2:
			return Number(float64(n%10000) / 16)
		case 3:
			return String("s" + FormatFloat(float64(uint64(n)%997)))
		case 4:
			arr := Array()
			for i := int64(0); i < next()%4+1; i++ {
				arr.Append(gen(d - 1))
			}
			return arr
		default:
			obj := Object()
			for i := int64(0); i < next()%4+1; i++ {
				obj.Set("k"+FormatFloat(float64(i)), gen(d-1))
			}
			return obj
		}
	}
	return gen(depth)
}

func BenchmarkParseSmallObject(b *testing.B) {
	doc := []byte(`{"item_id":1,"item_name":"apple","sale_count":10,"turnover":20,"price":2}`)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseNested(b *testing.B) {
	doc := []byte(`{"a":{"b":{"c":{"d":[1,2,3,{"e":"deep"}]}}},"f":"g","arr":[{"x":1},{"x":2}]}`)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}
