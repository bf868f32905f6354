package sjson

import (
	"strings"
	"testing"
	"unsafe"
)

// within reports whether s is a substring of doc by address: the same
// backing bytes, not an equal copy.
func within(doc, s string) bool {
	if len(s) == 0 {
		return true
	}
	d, p := uintptr(unsafe.Pointer(unsafe.StringData(doc))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= d && p+uintptr(len(s)) <= d+uintptr(len(doc))
}

// TestExtractAllocations pins what the kernel allocates per document once its
// arena is warm: nothing for escape-free strings, integers, literals, skipped
// subtrees and matched keys, and exactly one string per value with escapes
// however many escapes it holds.
func TestExtractAllocations(t *testing.T) {
	trie := buildTrie("s", "n", "t", "o.k", "missing")
	out := make([]*Value, 5)
	var p Parser
	run := func(doc string) float64 {
		return testing.AllocsPerRun(50, func() {
			p.ResetValues()
			if _, err := p.Extract(doc, trie, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := `{"skipped": {"a": [1, "x\ty", {"b": null}]}, "s": "plain", "n": -12, "t": true, "o": {"k": "deep"}}`
	if got := run(plain); got != 0 {
		t.Errorf("escape-free document: %v allocations per Extract, want 0", got)
	}
	if got := run(`{"s": "tab\there", "n": 1}`); got != 1 {
		t.Errorf("one escaped value: %v allocations per Extract, want 1", got)
	}
	if got := run(`{"s": "\u00e9\u00C9\ud83d\ude00\n\"", "n": 1}`); got != 1 {
		t.Errorf("one value with six escapes: %v allocations per Extract, want 1", got)
	}
	if got := run(`{"mis\u0073ing": "v", "n": 1}`); got != 1 {
		t.Errorf("one escaped key: %v allocations per Extract, want 1", got)
	}
}

// TestFirstSlabFollowsTheTrie pins the arena's first growth: a parser that
// extracts gets one node per requested path, one that tree-parses gets
// minSlabValues, and both double from there.
func TestFirstSlabFollowsTheTrie(t *testing.T) {
	var x Parser
	out := make([]*Value, 2)
	if _, err := x.Extract(`{"a": 1, "b": [1, 2, 3, 4]}`, buildTrie("a", "b"), out); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 4} {
		if i >= len(x.slabs) || len(x.slabs[i]) != want {
			t.Fatalf("extracting parser's slabs = %d, want sizes 2, 4, ...", len(x.slabs))
		}
	}
	var p Parser
	if _, err := p.Parse([]byte(`[1]`)); err != nil {
		t.Fatal(err)
	}
	if len(p.slabs) != 1 || len(p.slabs[0]) != minSlabValues {
		t.Fatalf("tree parser's first slab = %d values, want %d", len(p.slabs[0]), minSlabValues)
	}
}

// TestParsedStringsViewTheDocument pins where a tree's strings live: keys,
// escape-free strings and integer literals are substrings of the document
// ParseString was given; a string with escapes is not. Parse([]byte) copies
// its input once, so its tree is independent of the caller's buffer.
func TestParsedStringsViewTheDocument(t *testing.T) {
	doc := strings.Clone(`{"key": "plain", "int": 12345678901234567890, "esc": "a\nb"}`)
	v, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range v.Members() {
		if !within(doc, m.Key) {
			t.Errorf("key %q is a copy, want a view of the document", m.Key)
		}
	}
	if s := v.Get("key").StringVal(); s != "plain" || !within(doc, s) {
		t.Errorf("escape-free string %q: not a view of the document", s)
	}
	if s := v.Get("int").Scalar(); s != "12345678901234567890" || !within(doc, s) {
		t.Errorf("integer literal %q: not a view of the document", s)
	}
	if s := v.Get("esc").StringVal(); s != "a\nb" || within(doc, s) {
		t.Errorf("escaped string %q: want a fresh string", s)
	}

	buf := []byte(doc)
	v, err = Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if got := Serialize(v); got != `{"key":"plain","int":12345678901234567890,"esc":"a\nb"}` {
		t.Errorf("tree changed with the caller's buffer: %s", got)
	}
}

// TestArenaGrowthSurvivesTheShift: slab sizes double by a shift, which past
// some sixty slabs (a document of two hundred thousand values) wraps to zero
// or below; the arena must keep handing out nodes at the capped size.
func TestArenaGrowthSurvivesTheShift(t *testing.T) {
	for _, slabs := range []int{59, 60, 64, 200} {
		p := Parser{slabs: make([][]Value, slabs), cur: slabs - 1}
		if v := p.newValue(); v == nil || len(p.slabs[slabs]) != maxSlabValues {
			t.Errorf("slab %d has %d values, want %d", slabs, len(p.slabs[slabs]), maxSlabValues)
		}
	}
}
