package jsonpath

import (
	"testing"
	"testing/quick"

	"repro/internal/sjson"
)

const saleLog = `{
	"item_id": 1,
	"item_name": "apple",
	"sale_count": 10,
	"turnover": 20.5,
	"tags": ["fruit", "fresh"],
	"store": {"fruit": [{"weight": 8, "type": "apple"}, {"weight": 9}], "open": true},
	"odd name": {"x": 1}
}`

func TestCompileAndEval(t *testing.T) {
	root, err := sjson.ParseString(saleLog)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		path string
		want string
		ok   bool
	}{
		{"$", "", true}, // root is the whole object; checked below separately
		{"$.item_name", "apple", true},
		{"$.sale_count", "10", true},
		{"$.turnover", "20.5", true},
		{"$.tags[0]", "fruit", true},
		{"$.tags[1]", "fresh", true},
		{"$.tags[2]", "", false},
		{"$.store.fruit[0].weight", "8", true},
		{"$.store.fruit[1].weight", "9", true},
		{"$.store.fruit[1].type", "", false},
		{"$.store.open", "true", true},
		{"$['odd name'].x", "1", true},
		{`$["odd name"].x`, "1", true},
		{"$.missing", "", false},
		{"$.missing.deeper", "", false},
		{"$.item_id[0]", "", false}, // index into scalar
		{"$.tags.member", "", false},
	}
	for _, tt := range tests {
		p, err := Compile(tt.path)
		if err != nil {
			t.Errorf("Compile(%q): %v", tt.path, err)
			continue
		}
		v := p.Eval(root)
		if tt.path == "$" {
			if v != root {
				t.Error("$ should return the root")
			}
			continue
		}
		got := ""
		if !v.IsNull() {
			got = v.Scalar()
		}
		if got != tt.want || !v.IsNull() != tt.ok {
			t.Errorf("Eval(%q) = (%q, present=%v), want (%q, %v)", tt.path, got, !v.IsNull(), tt.want, tt.ok)
		}
	}
}

func TestEvalString(t *testing.T) {
	p := MustCompile("$.turnover")
	got, ok := p.EvalString(`{"turnover": 42}`)
	if !ok || got != "42" {
		t.Errorf("EvalString = (%q, %v), want (42, true)", got, ok)
	}
	if _, ok := p.EvalString(`{"other": 1}`); ok {
		t.Error("missing member should report absent")
	}
	if _, ok := p.EvalString(`not json`); ok {
		t.Error("bad JSON should report absent, not panic")
	}
	comp, ok := MustCompile("$.o").EvalString(`{"o":{"a":[1,2]}}`)
	if !ok || comp != `{"a":[1,2]}` {
		t.Errorf("composite result = %q", comp)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"", "x", ".a", "$.", "$..a", "$[", "$[abc]", "$[-1]", "$['unterminated",
		"$['a'x", "$a", "$['']", "$[1.5]",
	}
	for _, in := range bad {
		if _, err := Compile(in); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", in)
		} else if _, isParseErr := err.(*ParseError); !isParseErr {
			t.Errorf("Compile(%q) error type %T", in, err)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on bad path")
		}
	}()
	MustCompile("not-a-path")
}

func TestSteps(t *testing.T) {
	p := MustCompile("$.a[3].b")
	steps := p.Steps()
	want := []Step{
		{Kind: StepMember, Name: "a"},
		{Kind: StepIndex, Index: 3},
		{Kind: StepMember, Name: "b"},
	}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step[%d] = %v, want %v", i, steps[i], want[i])
		}
	}
	if p.Depth() != 3 {
		t.Errorf("Depth = %d", p.Depth())
	}
	if d := MustCompile("$").Depth(); d != 0 {
		t.Errorf("Depth($) = %d", d)
	}
}

func TestFirstMember(t *testing.T) {
	if name, ok := MustCompile("$.a.b").FirstMember(); !ok || name != "a" {
		t.Errorf("FirstMember = (%q, %v)", name, ok)
	}
	if _, ok := MustCompile("$[0].a").FirstMember(); ok {
		t.Error("index-first path should not report a first member")
	}
	if _, ok := MustCompile("$").FirstMember(); ok {
		t.Error("root path should not report a first member")
	}
}

func TestCovers(t *testing.T) {
	a := MustCompile("$.a")
	ab := MustCompile("$.a.b")
	ab2 := MustCompile("$.a.b")
	ac := MustCompile("$.a.c")
	idx := MustCompile("$.a[0]")
	if !a.Covers(ab) || !ab.Covers(ab2) || !MustCompile("$").Covers(a) {
		t.Error("prefix coverage failed")
	}
	if ab.Covers(a) || ab.Covers(ac) || ab.Covers(idx) || idx.Covers(ab) {
		t.Error("non-prefix reported as covering")
	}
}

func TestCanonical(t *testing.T) {
	tests := []struct{ in, want string }{
		{"$.a.b", "$.a.b"},
		{"$['a'].b", "$.a.b"},
		{`$["x y"].b[2]`, "$['x y'].b[2]"},
		{"$", "$"},
		{"$.snake_case[10]", "$.snake_case[10]"},
	}
	for _, tt := range tests {
		if got := MustCompile(tt.in).Canonical(); got != tt.want {
			t.Errorf("Canonical(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// Property: Canonical is a fixed point — compiling the canonical form and
// canonicalizing again yields the same text, and the two paths evaluate
// identically on a sample document.
func TestQuickCanonicalFixedPoint(t *testing.T) {
	root, err := sjson.ParseString(saleLog)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"item_id", "item_name", "store", "fruit", "tags", "odd name", "weight"}
	f := func(seedRaw uint32, depthRaw uint8) bool {
		seed := uint64(seedRaw)
		depth := int(depthRaw%4) + 1
		expr := "$"
		for i := 0; i < depth; i++ {
			seed = seed*2862933555777941757 + 3037000493
			if seed%3 == 0 {
				expr += "[" + sjson.FormatFloat(float64(seed%5)) + "]"
			} else {
				name := names[seed%uint64(len(names))]
				if name == "odd name" {
					expr += "['odd name']"
				} else {
					expr += "." + name
				}
			}
		}
		p1, err := Compile(expr)
		if err != nil {
			return false
		}
		canon := p1.Canonical()
		p2, err := Compile(canon)
		if err != nil {
			return false
		}
		if p2.Canonical() != canon {
			return false
		}
		return sjson.Equal(p1.Eval(root), p2.Eval(root))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalNestedPath(b *testing.B) {
	root, err := sjson.ParseString(saleLog)
	if err != nil {
		b.Fatal(err)
	}
	p := MustCompile("$.store.fruit[1].weight")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := p.Eval(root); v.IsNull() {
			b.Fatal("missing value")
		}
	}
}

func BenchmarkEvalStringParsePerCall(b *testing.B) {
	p := MustCompile("$.store.fruit[1].weight")
	b.SetBytes(int64(len(saleLog)))
	for i := 0; i < b.N; i++ {
		if _, ok := p.EvalString(saleLog); !ok {
			b.Fatal("missing value")
		}
	}
}

func TestWildcardEval(t *testing.T) {
	doc := `{"orders":[{"qty":2,"sku":"a"},{"qty":5,"sku":"b"},{"nosku":1}],"one":[{"x":9}]}`
	root, err := sjson.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ path, want string }{
		{"$.orders[*].qty", "[2,5]"},
		{"$.orders[*].sku", `["a","b"]`},
		{"$.one[*].x", "9"}, // single match stays scalar
		{"$.orders[*].missing", ""},
		{"$.one[*]", `{"x":9}`},
	}
	for _, c := range cases {
		p := MustCompile(c.path)
		if !p.HasWildcard() {
			t.Errorf("%s: HasWildcard = false", c.path)
		}
		v := p.Eval(root)
		got := ""
		if !v.IsNull() {
			got = v.Scalar()
		}
		if got != c.want {
			t.Errorf("Eval(%s) = %q, want %q", c.path, got, c.want)
		}
	}
	if MustCompile("$.a.b[2]").HasWildcard() {
		t.Error("non-wildcard path reported wildcard")
	}
	// Wildcard over a non-array is null.
	if v := MustCompile("$.one[0].x[*]").Eval(root); !v.IsNull() {
		t.Errorf("wildcard over scalar = %v", v.Scalar())
	}
	// Canonical round trip.
	if got := MustCompile("$.orders[*].qty").Canonical(); got != "$.orders[*].qty" {
		t.Errorf("Canonical = %q", got)
	}
}

func TestWildcardCompileErrors(t *testing.T) {
	for _, bad := range []string{"$[*", "$[*x]", "$.a[**]"} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) succeeded", bad)
		}
	}
}
