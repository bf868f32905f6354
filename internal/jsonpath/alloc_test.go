package jsonpath

import (
	"runtime"
	"strings"
	"testing"
)

// TestExtractorAllocationsPerDocument pins what an uncached read costs per
// value, which is what alloc_kb_per_query on the raw lane is made of: a
// warmed Extractor allocates nothing for a document whose requested values
// need no transformation — the Scalar reads included — and exactly one
// string per value that has escapes. The kernel converts nothing, so there is
// no elision for a -race binary to lose: the pins hold there too.
func TestExtractorAllocationsPerDocument(t *testing.T) {
	x := NewExtractor(MustPathSet(
		MustCompile("$.s"), MustCompile("$.n"), MustCompile("$.t"), MustCompile("$.o.k"),
		MustCompile("$.arr[1]"), MustCompile("$.missing"), MustCompile("$.nul"),
	))
	var sink int
	run := func(doc string) float64 {
		return testing.AllocsPerRun(50, func() {
			x.Extract(doc)
			for i := 0; i < 7; i++ {
				s, _ := x.Scalar(i)
				sink += len(s)
			}
		})
	}
	for name, doc := range map[string]string{
		"every kind":    `{"skip": {"a": [1, "x\ty"]}, "s": "plain", "n": -12, "t": true, "o": {"k": "deep", "j": 1}, "arr": [0, "one", 2], "nul": null, "tail": [1, 2]}`,
		"all missing":   `{"other": 1, "another": "two"}`,
		"not an object": `[1, 2, 3]`,
	} {
		if got := run(doc); got != 0 {
			t.Errorf("%s: %v allocations per document, want 0", name, got)
		}
	}
	if got := run(`{"s": "tab\there", "n": 1, "o": {"k": "plain"}}`); got != 1 {
		t.Errorf("one escaped value: %v allocations per document, want 1", got)
	}
	if got := run(`{"s": "é\n", "n": 1, "o": {"k": "quo\"te"}}`); got != 2 {
		t.Errorf("two escaped values: %v allocations per document, want 2", got)
	}

	// Early exit: both paths resolve in the first tenth of the document.
	early := NewExtractor(MustPathSet(MustCompile("$.a"), MustCompile("$.b")))
	doc := `{"a": "first", "b": 2, "pad": "` + strings.Repeat("x", 400) + `", "c": {"d": [1, 2, 3]}}`
	got := testing.AllocsPerRun(50, func() {
		if scanned := early.Extract(doc); scanned >= len(doc)/4 {
			t.Fatalf("scanned %d of %d bytes: no early exit", scanned, len(doc))
		}
		a, _ := early.Scalar(0)
		b, _ := early.Scalar(1)
		sink += len(a) + len(b)
	})
	if got != 0 {
		t.Errorf("early exit: %v allocations per document, want 0", got)
	}
	_ = sink
}

// TestNewExtractorAllocatedBytes pins what opening an extractor costs, which a raw
// scan pays once per split: for a set of two scalar paths, the extractor, its
// two value slots and an arena of two nodes — under 600 bytes through its
// first document.
func TestNewExtractorAllocatedBytes(t *testing.T) {
	set := MustPathSet(MustCompile("$.a"), MustCompile("$.b.c"))
	doc := `{"a": "v", "b": {"c": 7}, "tail": 0}`
	const runs = 200
	keep := make([]*Extractor, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewExtractor(set)
		keep[i].Extract(doc)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 600 {
		t.Errorf("NewExtractor + first document allocates %d bytes, want < 600", per)
	}
	if s, ok := keep[runs-1].Scalar(1); s != "7" || !ok {
		t.Errorf("$.b.c = (%q, %v), want 7", s, ok)
	}
}
