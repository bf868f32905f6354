package sjson

import (
	"strings"
	"testing"
)

// buildTrie compiles simple dotted member paths ("a.b.c") into a finalized
// trie, assigning slots in argument order. Test-only helper; the real
// compiler lives in internal/jsonpath.
func buildTrie(paths ...string) *ExtractNode {
	root := NewExtractNode()
	for slot, path := range paths {
		n := root
		for _, part := range strings.Split(path, ".") {
			n = n.Member(part)
		}
		n.MarkTerminal(slot)
	}
	root.Finalize()
	return root
}

func extractOne(t *testing.T, doc string, paths ...string) ([]*Value, int) {
	t.Helper()
	trie := buildTrie(paths...)
	var p Parser
	out := make([]*Value, len(paths))
	scanned, err := p.Extract(doc, trie, out)
	if err != nil {
		t.Fatalf("Extract(%q): %v", doc, err)
	}
	return out, scanned
}

func TestExtractBasic(t *testing.T) {
	doc := `{"a": 1, "b": {"c": "hi", "d": [1,2,3]}, "e": null, "f": true}`
	out, _ := extractOne(t, doc, "a", "b.c", "e", "missing", "b.d")
	if got := out[0].Scalar(); got != "1" {
		t.Errorf("a = %q, want 1", got)
	}
	if got := out[1].Scalar(); got != "hi" {
		t.Errorf("b.c = %q, want hi", got)
	}
	if out[2] == nil || out[2].Kind() != KindNull {
		t.Errorf("e should be explicit null, got %v", out[2])
	}
	if out[3] != nil {
		t.Errorf("missing should be nil, got %v", out[3])
	}
	if got := out[4].Scalar(); got != "[1,2,3]" {
		t.Errorf("b.d = %q, want [1,2,3]", got)
	}
}

func TestExtractEarlyExit(t *testing.T) {
	head := `{"a": 42, `
	tail := `"pad": "` + strings.Repeat("x", 4096) + `"}`
	doc := head + tail
	out, scanned := extractOne(t, doc, "a")
	if got := out[0].Scalar(); got != "42" {
		t.Fatalf("a = %q, want 42", got)
	}
	if scanned >= len(doc)/2 {
		t.Errorf("scanned %d of %d bytes; early exit should have stopped near the front", scanned, len(doc))
	}
	var p Parser
	trie := buildTrie("a")
	outArr := make([]*Value, 1)
	if _, err := p.Extract(doc, trie, outArr); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.BytesScanned+st.BytesSkipped != int64(len(doc)) {
		t.Errorf("scanned(%d)+skipped(%d) != len(doc)=%d", st.BytesScanned, st.BytesSkipped, len(doc))
	}
	if st.BytesSkipped == 0 {
		t.Error("expected nonzero BytesSkipped")
	}
}

func TestExtractSkippedSubtreesAllocateNothing(t *testing.T) {
	// Big skipped subtree before the requested key: ValuesBuilt must count
	// only the materialized subtree.
	doc := `{"huge": {"a":[1,2,3,{"b":"c"}], "d": {"e": {"f": 1}}}, "want": 7}`
	trie := buildTrie("want")
	var p Parser
	out := make([]*Value, 1)
	if _, err := p.Extract(doc, trie, out); err != nil {
		t.Fatal(err)
	}
	if got := out[0].Scalar(); got != "7" {
		t.Fatalf("want = %q", got)
	}
	if st := p.Stats(); st.ValuesBuilt != 1 {
		t.Errorf("ValuesBuilt = %d, want 1 (skipped subtrees must not materialize)", st.ValuesBuilt)
	}
}

func TestExtractCoveringPaths(t *testing.T) {
	// A terminal with deeper terminals under it: both must fill from one
	// materialized subtree.
	doc := `{"a": {"b": 1, "c": null}}`
	out, _ := extractOne(t, doc, "a", "a.b", "a.c", "a.d")
	if got := out[0].Scalar(); got != `{"b":1,"c":null}` {
		t.Errorf("a = %q", got)
	}
	if got := out[1].Scalar(); got != "1" {
		t.Errorf("a.b = %q, want 1", got)
	}
	if out[2] == nil || out[2].Kind() != KindNull {
		t.Errorf("a.c should be explicit null, got %v", out[2])
	}
	if out[3] != nil {
		t.Errorf("a.d should be missing, got %v", out[3])
	}
}

func TestExtractDuplicateKeysFirstWins(t *testing.T) {
	doc := `{"a": 1, "a": 2}`
	out, _ := extractOne(t, doc, "a")
	if got := out[0].Scalar(); got != "1" {
		t.Errorf("a = %q, want first occurrence 1", got)
	}
	// Must match what tree parse + Get produces.
	root, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Get("a").Scalar(); got != out[0].Scalar() {
		t.Errorf("tree Get = %q, extract = %q", got, out[0].Scalar())
	}
}

func TestExtractArrayIndexes(t *testing.T) {
	trie := NewExtractNode()
	trie.Member("arr").Elem(1).MarkTerminal(0)
	trie.Member("arr").Elem(3).Member("x").MarkTerminal(1)
	trie.Member("arr").Elem(9).MarkTerminal(2)
	trie.Finalize()
	var p Parser
	out := make([]*Value, 3)
	doc := `{"arr": [10, 20, 30, {"x": "deep"}, 50]}`
	if _, err := p.Extract(doc, trie, out); err != nil {
		t.Fatal(err)
	}
	if got := out[0].Scalar(); got != "20" {
		t.Errorf("arr[1] = %q, want 20", got)
	}
	if got := out[1].Scalar(); got != "deep" {
		t.Errorf("arr[3].x = %q, want deep", got)
	}
	if out[2] != nil {
		t.Errorf("arr[9] should be missing, got %v", out[2])
	}
}

func TestExtractKindMismatches(t *testing.T) {
	// Member path into an array, element path into an object, deep path
	// through a scalar: all missing, and the scan must still terminate.
	trie := NewExtractNode()
	trie.Member("a").Member("x").MarkTerminal(0)
	trie.Member("b").Elem(0).MarkTerminal(1)
	trie.Member("c").Member("deep").Member("er").MarkTerminal(2)
	trie.Finalize()
	var p Parser
	out := make([]*Value, 3)
	doc := `{"a": [1,2], "b": {"k": 1}, "c": "scalar"}`
	if _, err := p.Extract(doc, trie, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != nil {
			t.Errorf("slot %d should be missing, got %v", i, v)
		}
	}
}

func TestExtractEscapedKeys(t *testing.T) {
	// The escaped key unescapes to "key": the slow-path key scan must match
	// it against the trie's literal member name.
	doc := "{\"k\\u0065y\": \"esc\", \"lit\": 1}"
	out, _ := extractOne(t, doc, "key", "lit")
	if got := out[0].Scalar(); got != "esc" {
		t.Errorf("key = %q, want esc (escaped key must match)", got)
	}
	if got := out[1].Scalar(); got != "1" {
		t.Errorf("lit = %q", got)
	}
}

func TestExtractMalformed(t *testing.T) {
	trie := buildTrie("zzz")
	var p Parser
	out := make([]*Value, 1)
	for _, doc := range []string{
		``, `{`, `{"a"`, `{"a": }`, `{"a": 1,,}`, `{"a": "unterminated`,
		`{"a": tru}`, `{]`, `{"a": [}]}`, `{"a": 1} trailing`,
	} {
		if _, err := p.Extract(doc, trie, out); err == nil {
			t.Errorf("Extract(%q): expected error", doc)
		}
	}
}

func TestExtractEarlyExitToleratesMalformedTail(t *testing.T) {
	// By design the extractor stops validating at early exit: garbage after
	// the last resolved path is never scanned.
	doc := `{"a": 1, "broken": ` // invalid as a whole document
	out, scanned := extractOne(t, doc, "a")
	if got := out[0].Scalar(); got != "1" {
		t.Fatalf("a = %q", got)
	}
	if scanned >= len(doc) {
		t.Errorf("expected early exit before the malformed tail")
	}
}

func TestExtractDeepNestingBounded(t *testing.T) {
	deep := strings.Repeat(`{"a":`, maxDepth+8) + `1` + strings.Repeat(`}`, maxDepth+8)
	trie := buildTrie("zzz")
	var p Parser
	out := make([]*Value, 1)
	if _, err := p.Extract(deep, trie, out); err == nil {
		t.Error("expected depth error for skipped deep nesting")
	}
	// And on the descend path too.
	trie2 := buildTrie(strings.TrimSuffix(strings.Repeat("a.", maxDepth+8), "."))
	out2 := make([]*Value, 1)
	if _, err := p.Extract(deep, trie2, out2); err == nil {
		t.Error("expected depth error for extracted deep nesting")
	}
}

func TestExtractReuseAcrossDocs(t *testing.T) {
	trie := buildTrie("a", "b")
	var p Parser
	out := make([]*Value, 2)
	docs := []string{
		`{"a": 1, "b": 2}`,
		`{"b": "x"}`,
		`{"junk": [1,2,3], "a": true}`,
	}
	wantA := []string{"1", "", "true"}
	wantB := []string{"2", "x", ""}
	for i, doc := range docs {
		p.ResetValues()
		if _, err := p.Extract(doc, trie, out); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		gotA, gotB := "", ""
		if out[0] != nil {
			gotA = out[0].Scalar()
		}
		if out[1] != nil {
			gotB = out[1].Scalar()
		}
		if gotA != wantA[i] || gotB != wantB[i] {
			t.Errorf("doc %d: a=%q b=%q, want a=%q b=%q", i, gotA, gotB, wantA[i], wantB[i])
		}
	}
	if st := p.Stats(); st.Documents != int64(len(docs)) {
		t.Errorf("Documents = %d, want %d", st.Documents, len(docs))
	}
}

func BenchmarkExtractTwoOfThirty(b *testing.B) {
	// The motivating shape: two leaf paths out of a 30-field record.
	var sb strings.Builder
	sb.WriteString(`{`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		switch i {
		case 7:
			sb.WriteString(`"want1": 42`)
		case 19:
			sb.WriteString(`"want2": "payload"`)
		default:
			sb.WriteString(`"field` + string(rune('a'+i%26)) + `": {"x": [1,2,3], "y": "filler filler filler"}`)
		}
	}
	sb.WriteString(`}`)
	doc := sb.String()

	b.Run("stream", func(b *testing.B) {
		trie := buildTrie("want1", "want2")
		var p Parser
		out := make([]*Value, 2)
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			p.ResetValues()
			if _, err := p.Extract(doc, trie, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		var p Parser
		raw := []byte(doc)
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			p.ResetValues()
			root, err := p.Parse(raw)
			if err != nil {
				b.Fatal(err)
			}
			if root.Get("want1") == nil || root.Get("want2") == nil {
				b.Fatal("missing")
			}
		}
	})
}
