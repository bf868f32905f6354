package mison

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/jsonpath"
	"repro/internal/sjson"
)

func TestPrefixXOR(t *testing.T) {
	// Quotes at bits 2 and 5 should mark bits 2..4 as inside the string.
	x := uint64(1<<2 | 1<<5)
	got := prefixXOR(x)
	want := uint64(1<<2 | 1<<3 | 1<<4)
	if got != want {
		t.Errorf("prefixXOR = %b, want %b", got, want)
	}
	if prefixXOR(0) != 0 {
		t.Error("prefixXOR(0) != 0")
	}
}

func TestEscapedPositions(t *testing.T) {
	// Pattern: \" at bits 0-1 → bit 1 escaped; \\" at bits 3-5 → bit 5 not escaped.
	bs := uint64(1<<0 | 1<<3 | 1<<4)
	esc := escapedPositions(bs)
	if esc&(1<<1) == 0 {
		t.Error("bit 1 should be escaped (single backslash before)")
	}
	if esc&(1<<5) != 0 {
		t.Error("bit 5 should not be escaped (double backslash before)")
	}
}

func project(t *testing.T, doc string, paths ...string) []Result {
	t.Helper()
	compiled := make([]*jsonpath.Path, len(paths))
	for i, p := range paths {
		compiled[i] = jsonpath.MustCompile(p)
	}
	pr := NewProjector(compiled...)
	return pr.Project([]byte(doc))
}

func TestProjectTopLevel(t *testing.T) {
	doc := `{"item_id": 7, "item_name": "apple", "price": 2.5, "in_stock": true, "note": null}`
	res := project(t, doc, "$.item_name", "$.price", "$.in_stock", "$.note", "$.missing")
	wantScalar := []string{"apple", "2.5", "true", "", ""}
	wantPresent := []bool{true, true, true, false, false}
	for i := range wantScalar {
		if res[i].Present != wantPresent[i] || res[i].Scalar != wantScalar[i] {
			t.Errorf("res[%d] = %+v, want (%q, %v)", i, res[i], wantScalar[i], wantPresent[i])
		}
	}
}

func TestProjectNested(t *testing.T) {
	doc := `{"store": {"fruit": [{"weight": 8, "type": "apple"}, {"weight": 9}], "open": true}, "id": 3}`
	res := project(t, doc, "$.store.fruit[0].weight", "$.store.fruit[1].weight", "$.store.open", "$.store.fruit[2].weight", "$.id")
	want := []struct {
		scalar  string
		present bool
	}{
		{"8", true}, {"9", true}, {"true", true}, {"", false}, {"3", true},
	}
	for i, w := range want {
		if res[i].Present != w.present || res[i].Scalar != w.scalar {
			t.Errorf("res[%d] = %+v, want %+v", i, res[i], w)
		}
	}
}

func TestProjectStructuralCharsInsideStrings(t *testing.T) {
	doc := `{"trap": "a,b:{c}[d]\"e\"", "x": 1, "y": "{:,}"}`
	res := project(t, doc, "$.trap", "$.x", "$.y")
	if !res[0].Present || res[0].Scalar != `a,b:{c}[d]"e"` {
		t.Errorf("trap = %+v", res[0])
	}
	if !res[1].Present || res[1].Scalar != "1" {
		t.Errorf("x = %+v", res[1])
	}
	if !res[2].Present || res[2].Scalar != "{:,}" {
		t.Errorf("y = %+v", res[2])
	}
}

func TestProjectCompositeValues(t *testing.T) {
	doc := `{"obj": {"a": 1}, "arr": [1, 2, 3]}`
	res := project(t, doc, "$.obj", "$.arr", "$.arr[1]")
	if !res[0].Present || res[0].Scalar != `{"a": 1}` {
		t.Errorf("obj = %+v", res[0])
	}
	if !res[1].Present || res[1].Scalar != `[1, 2, 3]` {
		t.Errorf("arr = %+v", res[1])
	}
	if !res[2].Present || res[2].Scalar != "2" {
		t.Errorf("arr[1] = %+v", res[2])
	}
}

func TestSpeculationStableSchema(t *testing.T) {
	pr := NewProjector(jsonpath.MustCompile("$.c"), jsonpath.MustCompile("$.a"))
	for i := 0; i < 100; i++ {
		doc := fmt.Sprintf(`{"a": %d, "b": "x", "c": %d}`, i, i*2)
		res := pr.Project([]byte(doc))
		if res[0].Scalar != fmt.Sprint(i*2) || res[1].Scalar != fmt.Sprint(i) {
			t.Fatalf("iteration %d: %+v", i, res)
		}
	}
	st := pr.Stats()
	if st.SpeculationHits < 190 { // 2 fields × 99 follow-up docs, first doc misses
		t.Errorf("SpeculationHits = %d, want >= 190 on stable schema", st.SpeculationHits)
	}
	if st.SpeculationMiss != 0 {
		t.Errorf("SpeculationMiss = %d, want 0 on stable schema", st.SpeculationMiss)
	}
}

func TestSpeculationSchemaDrift(t *testing.T) {
	pr := NewProjector(jsonpath.MustCompile("$.target"))
	// Alternate field order so the cached ordinal is wrong every time.
	for i := 0; i < 50; i++ {
		var doc string
		if i%2 == 0 {
			doc = `{"pad1": 1, "target": 5, "pad2": 2}`
		} else {
			doc = `{"target": 5, "pad1": 1, "pad2": 2}`
		}
		res := pr.Project([]byte(doc))
		if !res[0].Present || res[0].Scalar != "5" {
			t.Fatalf("iteration %d: %+v", i, res)
		}
	}
	st := pr.Stats()
	if st.SpeculationMiss < 40 {
		t.Errorf("SpeculationMiss = %d, want misses under schema drift", st.SpeculationMiss)
	}
}

func TestEscapedQuotesInKeysAndValues(t *testing.T) {
	doc := `{"key\"q": 1, "v": "a\\", "w": 2}`
	res := project(t, doc, `$['key"q']`, "$.v", "$.w")
	if !res[0].Present || res[0].Scalar != "1" {
		t.Errorf("escaped key = %+v", res[0])
	}
	if !res[1].Present || res[1].Scalar != `a\` {
		t.Errorf("v = %+v", res[1])
	}
	if !res[2].Present || res[2].Scalar != "2" {
		t.Errorf("w = %+v", res[2])
	}
}

func TestLongDocumentCrossesWordBoundaries(t *testing.T) {
	// Build a document much longer than 64 bytes with strings straddling
	// word boundaries.
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < 50; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"field_%02d": "%s"`, i, strings.Repeat("x", i%13))
	}
	sb.WriteString(`,"last": 99}`)
	res := project(t, sb.String(), "$.field_27", "$.last")
	if !res[0].Present || res[0].Scalar != strings.Repeat("x", 27%13) {
		t.Errorf("field_27 = %+v", res[0])
	}
	if !res[1].Present || res[1].Scalar != "99" {
		t.Errorf("last = %+v", res[1])
	}
}

// Property: for random JSON trees, Mison projection of a random existing
// path agrees with the full-parse JSONPath evaluation.
func TestQuickAgreesWithFullParse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 3)
		root, err := sjson.ParseString(doc)
		if err != nil {
			return true // generator bug would be caught elsewhere
		}
		paths := collectPaths(root, "$")
		if len(paths) == 0 {
			return true
		}
		pathText := paths[rng.Intn(len(paths))]
		p := jsonpath.MustCompile(pathText)
		want := p.Eval(root)
		pr := NewProjector(p)
		got := pr.Project([]byte(doc))[0]
		if want.IsNull() {
			return !got.Present
		}
		if !got.Present {
			return false
		}
		switch want.Kind() {
		case sjson.KindObject, sjson.KindArray:
			parsed, err := sjson.Parse(got.Raw)
			return err == nil && sjson.Equal(parsed, want)
		default:
			return got.Scalar == want.Scalar()
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// randomDoc builds a random JSON object document.
func randomDoc(rng *rand.Rand, depth int) string {
	v := randomObject(rng, depth)
	return sjson.Serialize(v)
}

func randomObject(rng *rand.Rand, depth int) *sjson.Value {
	obj := sjson.Object()
	n := rng.Intn(5) + 1
	for i := 0; i < n; i++ {
		obj.Set(fmt.Sprintf("k%d", i), randomVal(rng, depth))
	}
	return obj
}

func randomVal(rng *rand.Rand, depth int) *sjson.Value {
	choice := rng.Intn(6)
	if depth <= 0 && choice >= 4 {
		choice = rng.Intn(4)
	}
	switch choice {
	case 0:
		return sjson.Null()
	case 1:
		return sjson.Bool(rng.Intn(2) == 0)
	case 2:
		return sjson.Number(float64(rng.Intn(1000)) / 4)
	case 3:
		specials := []string{"plain", `with"quote`, `back\slash`, "comma,colon:", "{brace}", "[brack]"}
		return sjson.String(specials[rng.Intn(len(specials))])
	case 4:
		arr := sjson.Array()
		for i := 0; i < rng.Intn(4)+1; i++ {
			arr.Append(randomVal(rng, depth-1))
		}
		return arr
	default:
		return randomObject(rng, depth-1)
	}
}

// collectPaths lists all leaf-ish JSONPaths in a value.
func collectPaths(v *sjson.Value, prefix string) []string {
	var out []string
	switch v.Kind() {
	case sjson.KindObject:
		for _, m := range v.Members() {
			child := prefix + "['" + m.Key + "']"
			if !strings.ContainsAny(m.Key, `'\`) {
				out = append(out, collectPaths(m.Value, child)...)
			}
		}
	case sjson.KindArray:
		for i, e := range v.Elements() {
			out = append(out, collectPaths(e, fmt.Sprintf("%s[%d]", prefix, i))...)
		}
	default:
		out = append(out, prefix)
	}
	return out
}

func BenchmarkProjectTwoFieldsOf20(b *testing.B) {
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < 20; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"field_%02d": %d`, i, i*3)
	}
	sb.WriteByte('}')
	doc := []byte(sb.String())
	pr := NewProjector(jsonpath.MustCompile("$.field_03"), jsonpath.MustCompile("$.field_17"))
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := pr.Project(doc)
		if !res[0].Present || !res[1].Present {
			b.Fatal("projection failed")
		}
	}
}
