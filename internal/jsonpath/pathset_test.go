package jsonpath

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sjson"
)

func TestPathSetExtractMatchesEval(t *testing.T) {
	doc := `{
		"a": 1,
		"b": {"c": "hi", "d": [10, {"e": null}, 30]},
		"dup": "first", "dup": "second",
		"nul": null,
		"tail": "unused"
	}`
	exprs := []string{
		"$.a", "$.b.c", "$.b.d[1].e", "$.b.d[2]", "$.b.d[9]",
		"$.missing", "$.nul", "$.dup", "$['a']", "$.b", "$",
	}
	var paths []*Path
	for _, e := range exprs {
		paths = append(paths, MustCompile(e))
	}
	set, err := NewPathSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	var parser sjson.Parser
	out := make([]*sjson.Value, len(paths))
	if _, err := set.Extract(&parser, []byte(doc), out); err != nil {
		t.Fatal(err)
	}
	root, err := sjson.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		want := p.Eval(root)
		got := out[i]
		if (want == nil) != (got == nil) {
			t.Errorf("%s: nil-ness differs: eval=%v extract=%v", p, want, got)
			continue
		}
		if !sjson.Equal(want, got) {
			t.Errorf("%s: eval=%s extract=%s", p, want.Scalar(), got.Scalar())
		}
	}
}

func TestPathSetRejectsNilPath(t *testing.T) {
	if _, err := NewPathSet(MustCompile("$.a"), nil); err == nil {
		t.Error("nil path should be rejected")
	}
}

// TestPathSetWildcardMatchesEval pins the streaming array-iteration nodes to
// tree-parse + Eval over the tricky wildcard shapes: nested wildcards,
// empty/heterogeneous arrays, explicit nulls (excluded from matches),
// wildcard+index coexistence at one array, and covering sets where a
// terminal sits on the wild child itself.
func TestPathSetWildcardMatchesEval(t *testing.T) {
	docs := []string{
		`{"a": [{"b": 1}, {"b": 2}, {"b": 3}], "z": "tail"}`,
		`{"a": [{"b": 1}], "z": 2}`,                    // single match stays scalar
		`{"a": [], "z": 2}`,                            // empty array
		`{"a": [1, "s", null, {"b": 9}, [5]], "z": 0}`, // heterogeneous + null
		`{"a": {"b": 1}}`,                              // wildcard over non-array
		`{"a": [{"b": null}, {"b": 2}, {"c": 3}]}`,     // explicit nulls excluded
		`{"a": [[{"c": 1}], [{"c": 2}, {"c": 3}], []]}`,
		`{"a": [{"b": [1, 2]}, {"b": []}, {"b": [3]}]}`, // nested wild per level
		`{"m": [[1, 2], [3], "x"], "a": [0]}`,
		`{"a": [{"b": {"c": true}}, 7, {"b": {"c": false}}]}`,
		`{}`,
		`[{"b": 1}, {"b": 2}]`, // wildcard at the root value
	}
	exprs := []string{
		"$.a[*]",
		"$.a[*].b",
		"$.a[*].b[*]",
		"$.a[*].b.c",
		"$.a[0]",    // coexists with $.a[*] in one trie
		"$.a[1].b",  // ditto, deeper
		"$.a[9]",    // past-the-end index next to a wildcard
		"$.m[*][0]", // wildcard-then-index
		"$[*].b",    // root-level wildcard
		"$.z",       // plain path sharing the pass
		"$",         // the whole document, covering all of the above
	}
	var paths []*Path
	for _, e := range exprs {
		paths = append(paths, MustCompile(e))
	}
	set, err := NewPathSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	var parser sjson.Parser
	out := make([]*sjson.Value, len(paths))
	for _, doc := range docs {
		parser.ResetValues()
		if _, err := set.Extract(&parser, []byte(doc), out); err != nil {
			t.Fatalf("doc %s: %v", doc, err)
		}
		root, err := sjson.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range paths {
			want := p.Eval(root)
			got := out[i]
			if (want == nil) != (got == nil) {
				t.Errorf("doc %s path %s: nil-ness differs: eval=%v extract=%v", doc, p, want, got)
				continue
			}
			if !sjson.Equal(want, got) {
				t.Errorf("doc %s path %s: eval=%s extract=%s", doc, p, want.Scalar(), got.Scalar())
			}
		}
	}
}

func TestPathSetAliases(t *testing.T) {
	// $.a spelled two ways plus a distinct path: aliases share a slot but
	// every input position is filled.
	set := MustPathSet(MustCompile("$.a"), MustCompile("$['a']"), MustCompile("$.b"))
	var parser sjson.Parser
	out := make([]*sjson.Value, 3)
	if _, err := set.Extract(&parser, []byte(`{"a": 7, "b": 8}`), out); err != nil {
		t.Fatal(err)
	}
	if out[0].Scalar() != "7" || out[1].Scalar() != "7" || out[2].Scalar() != "8" {
		t.Errorf("got %v %v %v", out[0], out[1], out[2])
	}
}

// TestPathSetErrorReadsEachPathAlone: a set whose scan fails still answers
// each path with what its own scan reads, through the []byte door too.
func TestPathSetErrorReadsEachPathAlone(t *testing.T) {
	set := MustPathSet(MustCompile("$.z"), MustCompile("$.a"))
	var parser sjson.Parser
	out := make([]*sjson.Value, 2)
	if _, err := set.Extract(&parser, []byte(`{"a": 1, "z": {{`), out); err == nil {
		t.Fatal("expected syntax error")
	}
	if out[0] != nil || out[1].Scalar() != "1" {
		t.Errorf("got $.z = %v, $.a = %v, want nil and 1", out[0], out[1])
	}
}

// TestRootPathAlone holds $ without any covered path to Parse: objects,
// arrays, scalars, and the errors Parse reports for trailing data and
// truncation.
func TestRootPathAlone(t *testing.T) {
	x := NewExtractor(MustPathSet(MustCompile("$")))
	for _, doc := range []string{
		`{"a": [1, {"b": null}], "s": "x\u00e9"}`, `[1, 2, [3]]`, `"s"`, `12.50`, `true`, `null`,
		` {"a": 1} `, `{"a": 1} x`, `{"a": 1`, `[1, 2`, ``, `{"a": 1}}`,
	} {
		root, parseErr := sjson.ParseString(doc)
		scanned, err := x.Extract(doc), x.Err()
		got, ok := x.Scalar(0)
		if (err != nil) != (parseErr != nil) {
			t.Errorf("doc %q: Extract err = %v, Parse err = %v", doc, err, parseErr)
			continue
		}
		if parseErr != nil {
			if err.Error() != parseErr.Error() || ok {
				t.Errorf("doc %q: Extract = (%q, %v, %v), Parse err = %v", doc, got, ok, err, parseErr)
			}
			continue
		}
		if scanned != len(doc) {
			t.Errorf("doc %q: scanned %d of %d bytes", doc, scanned, len(doc))
		}
		if want := root.Scalar(); got != want || ok == root.IsNull() {
			t.Errorf("doc %q: $ = (%q, %v), want (%q, %v)", doc, got, ok, want, !root.IsNull())
		}
	}
}

// TestExtractorReuse runs one extractor over a run of documents: each
// Extract replaces the previous document's values, aliased spellings share a
// slot, and a malformed document reads each path alone without poisoning the
// next.
func TestExtractorReuse(t *testing.T) {
	x := NewExtractor(MustPathSet(MustCompile("$.a"), MustCompile("$['a']"), MustCompile("$.b.c")))
	for _, tc := range []struct {
		doc  string
		want [3]string // "" = absent
		bad  bool
	}{
		{`{"a": 1, "b": {"c": "x"}, "tail": [1, 2, 3]}`, [3]string{"1", "1", "x"}, false},
		{`{"b": {"c": [1, null]}}`, [3]string{"", "", "[1,null]"}, false},
		{`{"a": 7, "b": {"c": `, [3]string{"7", "7", ""}, true},
		{`{"a": null, "b": 5}`, [3]string{}, false},
		{`{"a": "again"}`, [3]string{"again", "again", ""}, false},
	} {
		scanned, err := x.Extract(tc.doc), x.Err()
		if (err != nil) != tc.bad {
			t.Fatalf("doc %s: err = %v, want error %v", tc.doc, err, tc.bad)
		}
		if scanned < 0 || scanned > len(tc.doc) {
			t.Fatalf("doc %s: scanned %d", tc.doc, scanned)
		}
		for i, want := range tc.want {
			if got, ok := x.Scalar(i); got != want || ok != (want != "") {
				t.Errorf("doc %s path %d: got (%q, %v), want %q", tc.doc, i, got, ok, want)
			}
		}
	}
}

// within reports whether s is a substring of doc by address: the same
// backing bytes, not an equal copy.
func within(doc, s string) bool {
	if len(s) == 0 {
		return true
	}
	d, p := uintptr(unsafe.Pointer(unsafe.StringData(doc))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= d && p+uintptr(len(s)) <= d+uintptr(len(doc))
}

// TestExtractedScalarsOutliveTheExtractor is the Extractor's lifetime
// contract: a scalar it hands out depends on the document's bytes and on
// nothing the extractor recycles. Scalars read from document N are unchanged
// after the extractor has scanned every later document — arena nodes and
// scratch buffer reused many times over — and after the extractor is gone;
// and a value the document spelled without escapes is a view of the document
// (same backing bytes), everything else a fresh string.
func TestExtractedScalarsOutliveTheExtractor(t *testing.T) {
	exprs := []string{"$.s", "$.n", "$.esc", "$.f", "$.o", "$.t", "$.arr[*].k"}
	paths := make([]*Path, len(exprs))
	for i, e := range exprs {
		paths[i] = MustCompile(e)
	}
	x := NewExtractor(MustPathSet(paths...))

	type kept struct {
		doc  string
		got  [7]string
		want [7]string
	}
	var docs []kept
	for i := 0; i < 40; i++ {
		tag := strings.Repeat(string(rune('a'+i%26)), 1+i%7)
		num := strings.Repeat("9", 1+i%19)
		docs = append(docs, kept{
			// strings.Clone: each document is its own heap object, as a row
			// read from a part file is its own region of the file.
			doc: strings.Clone(`{"s": "` + tag + `", "n": -` + num + `, "esc": "` + tag + `\né", "f": 1.50, ` +
				`"o": {"k": "` + tag + `", "z": [1, null]}, "t": false, "arr": [{"k": "` + tag + `"}, {"k": 2}], "tail": "unread"}`),
			want: [7]string{tag, "-" + num, tag + "\né", "1.5", `{"k":"` + tag + `","z":[1,null]}`, "false", `["` + tag + `",2]`},
		})
	}
	for i := range docs {
		x.Extract(docs[i].doc)
		if err := x.Err(); err != nil {
			t.Fatal(err)
		}
		for p := range paths {
			docs[i].got[p], _ = x.Scalar(p)
		}
	}
	x = nil
	runtime.GC()

	for _, d := range docs {
		if d.got != d.want {
			t.Fatalf("scalars of %s\n changed after later documents: %q\n want %q", d.doc, d.got, d.want)
		}
		for p, e := range exprs {
			// The escape-free string and the integer are views, the rest
			// fresh; "false" is a constant of the program, neither.
			view := e == "$.s" || e == "$.n"
			if e != "$.t" && within(d.doc, d.got[p]) != view {
				t.Errorf("%s = %q: view of the document = %v, want %v", exprs[p], d.got[p], !view, view)
			}
		}
	}
}

// TestMalformedDocumentContract pins what an extraction answers for a
// document Parse rejects (DESIGN.md "The malformed-document contract"): each
// path reads what extracting it alone reads, whatever set it is extracted
// with. A path's own scan gets the full grammar where it materializes, a
// structural check (brackets balance, strings terminate) where it skips, and
// stops at its last wanted value without looking at the tail.
func TestMalformedDocumentContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		doc   string
		paths []string
		want  []string // per path, "" = NULL
		fails bool     // the set's own scan meets the damage
	}{
		{"truncated inside the last wanted value",
			`{"a": 1, "b": {"c": [2,`, []string{"$.a", "$.b.c"}, []string{"1", ""}, true},
		{"truncated right after the last wanted value",
			`{"a": 1, "b": {"c": 2`, []string{"$.a", "$.b.c"}, []string{"1", "2"}, false},
		{"truncated after early exit",
			`{"a": 1, "b": {"c": 2`, []string{"$.a"}, []string{"1"}, false},
		{"truncated, a missing path scans to the end",
			`{"a": 1, "b": {"c": 2`, []string{"$.a", "$.z"}, []string{"1", ""}, true},
		{"truncated under the root path",
			`{"a": 1, "b": {"c": 2`, []string{"$", "$.a"}, []string{"", "1"}, true},
		{"trailing garbage after a scan to the end",
			`{"a": 1} x`, []string{"$.a", "$.z"}, []string{"1", ""}, true},
		{"trailing garbage after early exit",
			`{"a": 1} x`, []string{"$.a"}, []string{"1"}, false},
		{"trailing garbage under the root path",
			`{"a": 1} x`, []string{"$", "$.a"}, []string{"", "1"}, true},
		{"mismatched brackets inside a skipped subtree",
			`{"skip": {"k" 1 2, [}, "a": 5}`, []string{"$.a", "$.z"}, []string{"", ""}, true},
		{"bad grammar inside a skipped subtree whose brackets balance",
			`{"skip": {"k" 1 2, []}, "a": 5, "b": 6}`, []string{"$.a", "$.b"}, []string{"5", "6"}, false},
		{"the same subtree materialized by a covering path",
			`{"skip": {"k" 1 2, []}, "a": 5, "b": 6}`, []string{"$.a", "$.skip"}, []string{"5", ""}, true},
		{"the same subtree under the root path",
			`{"skip": {"k" 1 2, []}, "a": 5, "b": 6}`, []string{"$", "$.a"}, []string{"", "5"}, true},
		{"unterminated string in a skipped value",
			`{"skip": "abc, "a": 5}`, []string{"$.a"}, []string{""}, true},
		{"damage at the first token",
			`{"a" 1, "b": 2}`, []string{"$.b", "$.a"}, []string{"", ""}, true},
		{"damage in a sibling's value",
			`{"b": [1, x], "c": 3}`, []string{"$.b[0]", "$.c", "$.b"}, []string{"1", "3", ""}, true},
		{"damage inside a wildcard element",
			`{"a": [{"b": 1}, {"b": x}], "c": 2}`, []string{"$.a[*].b", "$.c", "$.a[0].b"}, []string{"", "2", "1"}, true},
	} {
		if _, err := sjson.ParseString(tc.doc); err == nil {
			t.Fatalf("%s: document is well-formed, the case tests nothing", tc.name)
		}
		var paths []*Path
		for _, e := range tc.paths {
			paths = append(paths, MustCompile(e))
		}
		x := NewExtractor(MustPathSet(paths...))
		x.Extract(tc.doc)
		if err := x.Err(); (err != nil) != tc.fails {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fails)
		}
		for i, p := range paths {
			got, ok := x.Scalar(i)
			if got != tc.want[i] || ok != (tc.want[i] != "") {
				t.Errorf("%s: %s = (%q, %v), want %q", tc.name, p, got, ok, tc.want[i])
			}
			if alone, aloneOK := p.EvalString(tc.doc); got != alone || ok != aloneOK {
				t.Errorf("%s: %s = (%q, %v) in the set, (%q, %v) alone", tc.name, p, got, ok, alone, aloneOK)
			}
		}
	}
}

func TestEvalStringStreaming(t *testing.T) {
	doc := `{"a": 1, "s": "x", "nested": {"deep": [1, 2, {"k": true}]}, "nul": null}`
	for _, tc := range []struct {
		expr string
		want string
		ok   bool
	}{
		{"$.a", "1", true},
		{"$.s", "x", true},
		{"$.nested.deep[2].k", "true", true},
		{"$.nested", `{"deep":[1,2,{"k":true}]}`, true},
		{"$.nul", "", false},
		{"$.missing", "", false},
		{"$", `{"a":1,"s":"x","nested":{"deep":[1,2,{"k":true}]},"nul":null}`, true},
	} {
		got, ok := MustCompile(tc.expr).EvalString(doc)
		if got != tc.want || ok != tc.ok {
			t.Errorf("EvalString(%s) = (%q, %v), want (%q, %v)", tc.expr, got, ok, tc.want, tc.ok)
		}
	}
	// Wildcard paths stream too, with identical collapse semantics.
	got, ok := MustCompile("$.nested.deep[*].k").EvalString(doc)
	if got != "true" || !ok {
		t.Errorf("wildcard EvalString = (%q, %v)", got, ok)
	}
	// Invalid input stays NULL.
	if got, ok := MustCompile("$.missing.x").EvalString(`{"broken`); got != "" || ok {
		t.Errorf("malformed doc: got (%q, %v)", got, ok)
	}
}

func TestEvalStringConcurrent(t *testing.T) {
	p := MustCompile("$.k")
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 500; i++ {
				doc := fmt.Sprintf(`{"pad": "%s", "k": %d}`, strings.Repeat("x", g*10), g*1000+i)
				got, ok := p.EvalString(doc)
				if !ok || got != fmt.Sprint(g*1000+i) {
					done <- fmt.Errorf("goroutine %d iter %d: got (%q, %v)", g, i, got, ok)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
