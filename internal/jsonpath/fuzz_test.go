package jsonpath

import (
	"strings"
	"testing"

	"repro/internal/sjson"
)

// FuzzExtractEquivalence is the streaming extractor's differential oracle:
// for arbitrary documents and arbitrary compiled path sets, a single
// streaming pass must return exactly what tree-parse-then-Eval returns for
// every path — same values, same NULL-vs-missing distinction. On every
// input, including documents the tree parser rejects, each path's value in
// the set is what extracting that path alone returns (EvalString): a path's
// value depends only on its document, never on the paths extracted with it.
// The extractor may succeed on a rejected document (early exit stops
// validating once every path is resolved).
//
// The kernel scans a string; PathSet.Extract and Parser.Parse are its []byte
// doors, which copy once and call it. Both doors are driven too and must
// agree with the string kernel on every value, on scanned and on the error.
//
// pathSpec is a ';'-separated list of JSONPath expressions; entries that do
// not compile are dropped.
func FuzzExtractEquivalence(f *testing.F) {
	f.Add(`{"a": 1, "b": {"c": [1, {"d": null}]}}`, "$.a;$.b.c[1].d;$.b.c[0];$.missing")
	f.Add(`{"a": 1, "a": 2, "x": "dup"}`, "$.a;$['a'];$.x")
	f.Add(`{"outer": {"inner": {"leaf": "v"}}, "tail": [1,2,3]}`, "$.outer;$.outer.inner.leaf")
	f.Add(`[{"k": 1}, {"k": 2}]`, "$[0].k;$[1].k;$[7].k")
	f.Add(`{"n": 1e300, "m": -0.5, "big": 12345678901234567890}`, "$.n;$.m;$.big")
	f.Add(`{"u": "é😀", "t": true}`, "$.u;$.t")
	f.Add(`{"": {"": 0}}`, "$[''];$[''][''];$.a")
	f.Add(`null`, "$.a")
	f.Add(`{"a": {`, "$.a.b")
	f.Add(`{"a": 1} trailing`, "$.a;$.z")
	// Wildcard seeds: array-iteration nodes over plain, nested, empty, and
	// heterogeneous arrays, explicit nulls (excluded from matches), wildcard
	// next to point indexes, and covering sets with a terminal on the wild
	// child itself.
	f.Add(`{"a": [{"b": 1}, {"b": 2}, {"b": 3}], "z": "t"}`, "$.a[*].b;$.a[0].b;$.z")
	f.Add(`{"a": [{"b": null}, {"b": 2}, 5, "s", [1]]}`, "$.a[*];$.a[*].b;$.a[2]")
	f.Add(`{"a": []}`, "$.a[*];$.a[*].b;$.a[0]")
	f.Add(`{"a": [[{"c": 1}], [{"c": 2}, {"c": 3}], []]}`, "$.a[*][*].c;$.a[*][0];$.a[1][*]")
	f.Add(`{"a": [{"b": [1, 2]}, {"b": []}, {"b": [3]}]}`, "$.a[*].b[*];$.a[*].b")
	f.Add(`[{"k": [true, null]}, 7]`, "$[*].k;$[*].k[*];$[0]")
	f.Add(`{"a": {"b": 1}}`, "$.a[*];$.a[*].b;$.a.b")
	f.Add(`{"m": [[1, 2], [3], "x"]}`, "$.m[*][0];$.m[*];$.m[9]")
	// Root seeds: $ is a terminal on the trie root, alone and covering
	// deeper paths, over objects, arrays, scalars and trailing garbage.
	f.Add(`{"a": 1, "b": [true, null]}`, "$")
	f.Add(`{"a": {"k": "v"}, "z": 0}`, "$;$.a")
	f.Add(`{"a": [{"b": 1}, {"b": 2}, {"c": 3}]}`, "$;$.a[*].b")
	f.Add(`[1, "two", null]`, "$;$[1]")
	f.Add(`"scalar"`, "$;$.a")
	f.Add(`{"a": 1} x`, "$;$.a")
	// Escape seeds: the values the kernel cannot hand out as views of the
	// document — escaped strings and keys, \u in both cases, surrogate pairs
	// and a lone surrogate — and the short and invalid escapes it must reject.
	f.Add(`{"s": "tab\there", "u": "\u00e9\u00C9", "p": "\ud83d\uDE00", "l": "\ud83d!", "n": -12}`, "$.s;$.u;$.p;$.l;$.n")
	f.Add(`{"k\u0065y": "escaped key", "key": "plain key", "q\"": 1}`, "$.key;$['q\"']")
	f.Add(`{"a": ["x\\y", "\/", "\b\f\r"], "b": "plain"}`, "$.a[*];$.a[1];$.b;$")
	f.Add(`{"a": "\u12"}`, "$.a")
	f.Add(`{"a": "\u12G4", "b": 1}`, "$.b;$.a")
	f.Add(`{"a": "\ud83d\u00"}`, "$.a")
	f.Add(`{"a": "bad \q"}`, "$.a")
	// Skipped-string seeds: the skipper finds a closing quote by searching
	// for it and falls back to the escape rule only when a backslash comes
	// first. An escaped backslash or quote right before the closing quote,
	// inside a skipped member and a skipped composite, a document ending in
	// a backslash or inside a string, and a long string with and without an
	// escape near its end.
	f.Add(`{"s": "a\\", "t": 1}`, "$.t")
	f.Add(`{"s": "\\\"", "t": 2, "u": "\\"}`, "$.t;$.u")
	f.Add(`{"a": ["x\\", {"b": "\\\"}]"}], "t": 3}`, "$.t")
	f.Add(`{"s": "abc\`, "$.t")
	f.Add(`{"s": "abc`, "$.t")
	f.Add(`{"s": "`+strings.Repeat("filler ", 28)+`abcd", "t": [1, "q"], "u": 4}`, "$.u")
	f.Add(`{"s": "`+strings.Repeat("filler ", 28)+`\"", "u": 5}`, "$.u;$.s")
	// Malformed seeds: truncated input, trailing garbage after a full scan,
	// damage in a skipped subtree next to a covering path, damage in a
	// sibling's value, and damage inside a wildcard element.
	f.Add(`{"a": 1, "b": {"c": [2, {"d": `, "$.a;$.b.c;$.b;$.z")
	f.Add(`[1,2] x`, "$[*];$.y")
	f.Add(`{"skip": {"k" 1 2, []}, "a": 5, "b": 6}`, "$.a;$.skip;$.b")
	f.Add(`{"b": [1, x], "c": 3}`, "$.b[0];$.c")
	f.Add(`{"a": [{"b": 1}, {"b": x}, {"b": 3}], "c": 2}`, "$.a[*].b;$.c;$.a[0].b")

	f.Fuzz(func(t *testing.T, doc string, pathSpec string) {
		var paths []*Path
		for _, expr := range strings.Split(pathSpec, ";") {
			p, err := Compile(expr)
			if err != nil {
				continue
			}
			paths = append(paths, p)
			if len(paths) == 8 {
				break
			}
		}
		if len(paths) == 0 {
			return
		}
		set, err := NewPathSet(paths...)
		if err != nil {
			t.Fatalf("NewPathSet: %v", err)
		}

		var parser sjson.Parser
		out := make([]*sjson.Value, len(paths))
		scanned, extractErr := set.extract(&parser, doc, out)
		if scanned < 0 || scanned > len(doc) {
			t.Fatalf("scanned %d out of range [0, %d]", scanned, len(doc))
		}
		st := parser.Stats()
		if st.BytesScanned+st.BytesSkipped != int64(len(doc)) {
			t.Fatalf("scanned(%d)+skipped(%d) != len(doc)=%d",
				st.BytesScanned, st.BytesSkipped, len(doc))
		}

		var byteParser sjson.Parser
		byteOut := make([]*sjson.Value, len(paths))
		byteScanned, byteErr := set.Extract(&byteParser, []byte(doc), byteOut)
		if byteScanned != scanned || errText(byteErr) != errText(extractErr) || byteParser.Stats() != st {
			t.Fatalf("[]byte door: scanned %d err %v stats %+v, string kernel: scanned %d err %v stats %+v\ndoc: %q",
				byteScanned, byteErr, byteParser.Stats(), scanned, extractErr, st, doc)
		}
		for i, p := range paths {
			if (out[i] == nil) != (byteOut[i] == nil) || !sjson.Equal(out[i], byteOut[i]) || out[i].Scalar() != byteOut[i].Scalar() {
				t.Fatalf("path %s: []byte door %q, string kernel %q\ndoc: %q", p, byteOut[i].Scalar(), out[i].Scalar(), doc)
			}
		}

		for i, p := range paths {
			gotStr, gotOK := "", !out[i].IsNull()
			if gotOK {
				gotStr = out[i].Scalar()
			}
			if alone, aloneOK := p.EvalString(doc); gotStr != alone || gotOK != aloneOK {
				t.Fatalf("path %s: (%q,%v) in the set, (%q,%v) alone (set err %v)\ndoc: %q",
					p, gotStr, gotOK, alone, aloneOK, extractErr, doc)
			}
		}

		root, parseErr := sjson.ParseString(doc)
		byteRoot, byteParseErr := sjson.Parse([]byte(doc))
		if errText(byteParseErr) != errText(parseErr) || (parseErr == nil && sjson.Serialize(byteRoot) != sjson.Serialize(root)) {
			t.Fatalf("Parse([]byte) = (%s, %v), ParseString = (%s, %v)\ndoc: %q",
				byteRoot.Scalar(), byteParseErr, root.Scalar(), parseErr, doc)
		}
		if parseErr != nil {
			// The tree parser rejects the document: there is no tree to
			// compare with, and each path was held to its lone scan above.
			return
		}
		if extractErr != nil {
			t.Fatalf("tree parse accepted doc but Extract failed: %v\ndoc: %q", extractErr, doc)
		}
		for i, p := range paths {
			want := p.Eval(root)
			got := out[i]
			if (want == nil) != (got == nil) {
				t.Fatalf("path %s: missing/null mismatch: eval=%v extract=%v\ndoc: %q",
					p, want, got, doc)
			}
			if !sjson.Equal(want, got) {
				t.Fatalf("path %s: value mismatch: eval=%q extract=%q\ndoc: %q",
					p, want.Scalar(), got.Scalar(), doc)
			}
			// Scalar rendering feeds query results directly; hold it to
			// byte equality, not just structural equality.
			if ws, gs := want.Scalar(), got.Scalar(); ws != gs {
				t.Fatalf("path %s: scalar mismatch: eval=%q extract=%q\ndoc: %q", p, ws, gs, doc)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
