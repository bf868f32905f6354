package jsonpath

import (
	"testing"

	"repro/internal/sjson"
)

func compileSet(t *testing.T, exprs ...string) *PathSet {
	t.Helper()
	var paths []*Path
	for _, e := range exprs {
		paths = append(paths, MustCompile(e))
	}
	s, err := NewPathSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUnionDedupAndRemap(t *testing.T) {
	cases := []struct {
		name   string
		inputs [][]string
		// wantMerged is the canonical form of each merged slot, in order.
		wantMerged []string
		wantRemaps [][]int
	}{
		{
			name:       "disjoint",
			inputs:     [][]string{{"$.a"}, {"$.b"}},
			wantMerged: []string{"$.a", "$.b"},
			wantRemaps: [][]int{{0}, {1}},
		},
		{
			name:       "identical path shared across sets",
			inputs:     [][]string{{"$.a", "$.b"}, {"$.b", "$.c"}},
			wantMerged: []string{"$.a", "$.b", "$.c"},
			wantRemaps: [][]int{{0, 1}, {1, 2}},
		},
		{
			name:       "canonical aliases collapse",
			inputs:     [][]string{{"$.a"}, {"$['a']"}},
			wantMerged: []string{"$.a"},
			wantRemaps: [][]int{{0}, {0}},
		},
		{
			name: "covering prefix and deeper path both kept",
			// $.a subsumes $.a.b structurally, but both values are wanted:
			// they get distinct slots served by one trie pass.
			inputs:     [][]string{{"$.a"}, {"$.a.b", "$.a"}},
			wantMerged: []string{"$.a", "$.a.b"},
			wantRemaps: [][]int{{0}, {1, 0}},
		},
		{
			name:       "duplicates within one input",
			inputs:     [][]string{{"$.x", "$.x", "$.y"}},
			wantMerged: []string{"$.x", "$.y"},
			wantRemaps: [][]int{{0, 0, 1}},
		},
		{
			name:       "nil set tolerated",
			inputs:     [][]string{nil, {"$.a"}},
			wantMerged: []string{"$.a"},
			wantRemaps: [][]int{nil, {0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sets := make([]*PathSet, len(tc.inputs))
			for i, exprs := range tc.inputs {
				if exprs == nil {
					continue
				}
				sets[i] = compileSet(t, exprs...)
			}
			merged, remaps, err := Union(sets...)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Len() != len(tc.wantMerged) {
				t.Fatalf("merged.Len() = %d, want %d", merged.Len(), len(tc.wantMerged))
			}
			for i, want := range tc.wantMerged {
				if got := merged.Paths()[i].Canonical(); got != want {
					t.Errorf("merged slot %d = %s, want %s", i, got, want)
				}
			}
			if len(remaps) != len(tc.wantRemaps) {
				t.Fatalf("got %d remaps, want %d", len(remaps), len(tc.wantRemaps))
			}
			for i, want := range tc.wantRemaps {
				got := remaps[i]
				if len(got) != len(want) {
					t.Fatalf("remap[%d] = %v, want %v", i, got, want)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("remap[%d][%d] = %d, want %d", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestUnionSinglePassSubsumption checks the scan-share invariant the merged
// trie provides: extracting $.a alongside $.a.b is one streaming pass whose
// scanned-byte meter matches a plain set containing both paths — the
// overlapping paths are not extracted or metered twice — and every input
// set's values are recoverable through its remap, identical to extracting
// that set alone.
func TestUnionSinglePassSubsumption(t *testing.T) {
	doc := []byte(`{"a": {"b": 7, "c": "x"}, "z": "tail-not-needed", "pad": [1,2,3]}`)
	setA := compileSet(t, "$.a", "$.a.c")
	setB := compileSet(t, "$.a.b", "$.a")
	merged, remaps, err := Union(setA, setB)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3 { // $.a, $.a.c, $.a.b
		t.Fatalf("merged.Len() = %d, want 3", merged.Len())
	}

	var parser sjson.Parser
	out := make([]*sjson.Value, merged.Len())
	mergedScanned, err := merged.Extract(&parser, doc, out)
	if err != nil {
		t.Fatal(err)
	}

	// One pass over the union must meter the same bytes as a straight
	// PathSet holding the distinct paths — no per-subsumed-path re-scan.
	// Distinct parsers keep each extraction's value arena alive for the
	// comparisons below.
	plain := compileSet(t, "$.a", "$.a.c", "$.a.b")
	var plainParser sjson.Parser
	plainOut := make([]*sjson.Value, plain.Len())
	plainScanned, err := plain.Extract(&plainParser, doc, plainOut)
	if err != nil {
		t.Fatal(err)
	}
	if mergedScanned != plainScanned {
		t.Errorf("merged pass scanned %d bytes, plain set scanned %d", mergedScanned, plainScanned)
	}
	if mergedScanned >= len(doc) {
		t.Errorf("scanned %d of %d bytes: early exit after the last wanted path should skip the tail", mergedScanned, len(doc))
	}

	// Each input set's view through the remap must match extracting it alone.
	for si, set := range []*PathSet{setA, setB} {
		var soloParser sjson.Parser
		solo := make([]*sjson.Value, set.Len())
		if _, err := set.Extract(&soloParser, doc, solo); err != nil {
			t.Fatal(err)
		}
		for j, slot := range remaps[si] {
			if !sjson.Equal(solo[j], out[slot]) {
				t.Errorf("set %d path %s: solo=%v merged[%d]=%v",
					si, set.Paths()[j], solo[j], slot, out[slot])
			}
		}
	}
}

// TestUnionWildcardSubsumption extends the single-pass invariant to wildcard
// paths: $.a[*] alongside $.a[*].b merges into one trie whose single
// streaming pass serves both (the wild terminal materializes each element
// and the deeper terminal fills from it), every participant recovering its
// own values through the remap. This is what lets a scanshare pass
// group wildcard queries instead of degrading to solo passthrough.
func TestUnionWildcardSubsumption(t *testing.T) {
	doc := []byte(`{"a": [{"b": 1, "c": "x"}, {"b": 2}, {"c": "y"}], "z": "tail-not-needed"}`)
	setA := compileSet(t, "$.a[*]", "$.z")
	setB := compileSet(t, "$.a[*].b", "$.a[*]")
	setC := compileSet(t, "$.a[*].b", "$.a[0].c")
	merged, remaps, err := Union(setA, setB, setC)
	if err != nil {
		t.Fatal(err)
	}
	wantMerged := []string{"$.a[*]", "$.z", "$.a[*].b", "$.a[0].c"}
	if merged.Len() != len(wantMerged) {
		t.Fatalf("merged.Len() = %d, want %d", merged.Len(), len(wantMerged))
	}
	for i, want := range wantMerged {
		if got := merged.Paths()[i].Canonical(); got != want {
			t.Errorf("merged slot %d = %s, want %s", i, got, want)
		}
	}

	var parser sjson.Parser
	out := make([]*sjson.Value, merged.Len())
	if _, err := merged.Extract(&parser, doc, out); err != nil {
		t.Fatal(err)
	}

	// Spot-check the wildcard collapse through the merged slots.
	if got := out[0].Scalar(); got != `[{"b":1,"c":"x"},{"b":2},{"c":"y"}]` {
		t.Errorf("$.a[*] = %s", got)
	}
	if got := out[2].Scalar(); got != "[1,2]" {
		t.Errorf("$.a[*].b = %s", got)
	}

	// Each input set's view through the remap must match extracting it alone.
	for si, set := range []*PathSet{setA, setB, setC} {
		var soloParser sjson.Parser
		solo := make([]*sjson.Value, set.Len())
		if _, err := set.Extract(&soloParser, doc, solo); err != nil {
			t.Fatal(err)
		}
		for j, slot := range remaps[si] {
			if !sjson.Equal(solo[j], out[slot]) {
				t.Errorf("set %d path %s: solo=%v merged[%d]=%v",
					si, set.Paths()[j], solo[j], slot, out[slot])
			}
		}
	}
}

func TestUnionEmpty(t *testing.T) {
	merged, remaps, err := Union()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 0 || len(remaps) != 0 {
		t.Fatalf("empty union: Len=%d remaps=%v", merged.Len(), remaps)
	}
}
