package jsonpath

import (
	"fmt"

	"repro/internal/sjson"
)

// PathSet compiles a set of JSONPaths into one shared prefix trie so a
// streaming extractor can pull every path's value out of a raw document in a
// single pass (sjson.Parser.Extract): shared prefixes are descended once,
// unrequested subtrees are skipped at tokenizer speed, and the scan stops as
// soon as all paths resolve. The root path $ is a terminal on the trie root:
// it materializes the whole document, and any deeper path in the same set is
// filled from that value.
//
// Paths are deduplicated by Canonical form — $.a and $['a'] share one slot —
// while Extract still reports one output per input path, in input order. A
// PathSet is immutable after construction and safe for concurrent use; each
// extraction uses the caller's parser for its value arena.
type PathSet struct {
	paths   []*Path
	slots   []int // input ordinal → trie slot (aliases collapse)
	nSlots  int
	aliased bool
	root    *sjson.ExtractNode
}

// NewPathSet compiles paths into a shared trie. The only error is a nil path.
func NewPathSet(paths ...*Path) (*PathSet, error) {
	s := &PathSet{
		paths: append([]*Path(nil), paths...),
		slots: make([]int, 0, len(paths)),
		root:  sjson.NewExtractNode(),
	}
	byCanon := make(map[string]int, len(paths))
	for _, p := range paths {
		if p == nil {
			return nil, fmt.Errorf("jsonpath: nil path in path set")
		}
		canon := p.Canonical()
		if slot, ok := byCanon[canon]; ok {
			s.slots = append(s.slots, slot)
			s.aliased = true
			continue
		}
		n := s.root
		for _, st := range p.steps {
			switch st.Kind {
			case StepMember:
				n = n.Member(st.Name)
			case StepIndex:
				n = n.Elem(st.Index)
			case StepWildcard:
				n = n.Wild()
			}
		}
		slot := s.nSlots
		n.MarkTerminal(slot)
		byCanon[canon] = slot
		s.slots = append(s.slots, slot)
		s.nSlots++
	}
	s.root.Finalize()
	return s, nil
}

// Union merges several path sets into one deduplicated PathSet plus, for
// each input set, a remap from its path ordinals to the merged set's output
// slots. Paths appearing in more than one input (by Canonical form) share a
// single merged slot, so the merged trie extracts — and BytesScanned meters —
// each distinct path exactly once per document. Overlapping paths such as
// $.a alongside $.a.b — and their wildcard forms, $.a[*] alongside
// $.a[*].b — also coexist in the one trie: the single streaming pass fills
// the deeper terminal while materializing the covering value, so neither
// the document bytes nor the parse counters are charged twice.
//
// The merged set is canonical (no aliased slots): its Extract writes exactly
// Len() outputs, and remaps[i][j] is the merged output slot serving input
// set i's j-th path. The scan-share scheduler uses this to route one shared
// extraction pass to every participant query's own column order.
func Union(sets ...*PathSet) (*PathSet, [][]int, error) {
	byCanon := make(map[string]int)
	var uniq []*Path
	remaps := make([][]int, len(sets))
	for si, s := range sets {
		if s == nil {
			remaps[si] = nil
			continue
		}
		remap := make([]int, len(s.paths))
		for pi, p := range s.paths {
			canon := p.Canonical()
			slot, ok := byCanon[canon]
			if !ok {
				slot = len(uniq)
				byCanon[canon] = slot
				uniq = append(uniq, p)
			}
			remap[pi] = slot
		}
		remaps[si] = remap
	}
	merged, err := NewPathSet(uniq...)
	if err != nil {
		return nil, nil, err
	}
	return merged, remaps, nil
}

// MustPathSet is NewPathSet that panics on error, for statically known sets.
func MustPathSet(paths ...*Path) *PathSet {
	s, err := NewPathSet(paths...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of input paths (before dedup).
func (s *PathSet) Len() int { return len(s.paths) }

// Paths returns the input paths in order. Callers must not modify the slice.
func (s *PathSet) Paths() []*Path { return s.paths }

// Extract scans doc once and writes each input path's value to the matching
// out entry: nil for a missing path, a non-nil null Value for an explicit
// JSON null — exactly what tree-parse + Eval yields for these paths. It
// returns the number of bytes actually scanned (early exit leaves the tail
// untouched; the parser's ParseStats meter the skipped bytes) and the scan's
// syntax error. On any bytes, each out entry is what its path alone yields.
//
// This is the []byte door, for callers that hold bytes they may overwrite:
// doc is copied into a string once, here, and the values view that copy.
// Production code holds documents as strings and goes through Extractor,
// which copies nothing.
func (s *PathSet) Extract(p *sjson.Parser, doc []byte, out []*sjson.Value) (scanned int, err error) {
	return s.extract(p, string(doc), out)
}

func (s *PathSet) extract(p *sjson.Parser, doc string, out []*sjson.Value) (scanned int, err error) {
	if len(out) < len(s.paths) {
		return 0, fmt.Errorf("jsonpath: Extract out has %d slots, need %d", len(out), len(s.paths))
	}
	if !s.aliased {
		scanned, err = p.Extract(doc, s.root, out[:s.nSlots])
	} else {
		tmp := make([]*sjson.Value, s.nSlots)
		scanned, err = p.Extract(doc, s.root, tmp)
		for i, slot := range s.slots {
			out[i] = tmp[slot]
		}
	}
	if err != nil {
		// Each path reads what extracting it alone reads. The one-path tries
		// are built for malformed documents only, and their own parser keeps
		// scanned and p's stats the set scan's.
		var lone sjson.Parser
		for i, path := range s.paths {
			out[i] = nil
			if s.nSlots > 1 {
				if _, loneErr := lone.Extract(doc, MustPathSet(path).root, out[i:i+1]); loneErr != nil {
					out[i] = nil
				}
			}
		}
	}
	return scanned, err
}

// Extractor is the one way production code runs a PathSet over documents.
// It owns the parser's value arena and the value slots, recycles both on
// every Extract, and hands callers only scalars — so an arena pointer cannot
// outlive the document it was parsed from. It scans the document where it
// lies and copies none of it: a scalar it returns is either a view of the
// document the caller passed in (an escape-free string, an integer literal),
// valid as long as that document's bytes are — which the caller already
// owns, and which for a warehouse document are an immutable part file — or a
// fresh string (a string with escapes, a re-rendered float, a compact
// composite). Whoever keeps a scalar past the query it answered clones it.
// Callers meter their own work from the scanned count Extract returns. An
// Extractor is not safe for concurrent use; the PathSet it runs may be shared.
type Extractor struct {
	set    *PathSet
	parser sjson.Parser
	vals   []*sjson.Value
	doc    string // the document vals belong to
	loaded bool
	err    error
}

// NewExtractor returns an extractor for set's paths.
func NewExtractor(set *PathSet) *Extractor {
	return &Extractor{set: set, vals: make([]*sjson.Value, set.Len())}
}

// Extract makes doc the current document: it scans doc once for every path
// of the set, replacing the previous document's values, and returns the
// bytes actually scanned (early exit leaves the tail untouched).
func (x *Extractor) Extract(doc string) (scanned int) {
	x.parser.ResetValues()
	// x.vals points into the parser's arena: the ResetValues above retires it
	// before every refill, and only Scalar reads it, handing out strings that
	// do not point into the arena.
	scanned, x.err = x.set.extract(&x.parser, doc, x.vals)
	x.doc, x.loaded = doc, true
	return scanned
}

// Holds reports whether doc is the current document, so a caller asking
// several paths of one row's document extracts it once.
func (x *Extractor) Holds(doc string) bool { return x.loaded && x.doc == doc }

// Forget drops the current document: Holds reports false until the next
// Extract, and the extractor no longer refers to the document's bytes. A
// caller that reuses one extractor across splits forgets at each split's
// start, so a repeat is only ever skipped within a split.
func (x *Extractor) Forget() { x.doc, x.loaded = "", false }

// Err returns the syntax error the scan of the current document ran into,
// nil for a document that was well-formed as far as it was scanned. After an
// error each path still reads what extracting it alone reads.
func (x *Extractor) Err() error { return x.err }

// Scalar returns the get_json_object rendering of the set's i-th path in the
// current document, and whether the value was present (a missing path, an
// explicit JSON null and damage the path's own scan meets report absent).
func (x *Extractor) Scalar(i int) (string, bool) {
	v := x.vals[i]
	if v.IsNull() {
		return "", false
	}
	return v.Scalar(), true
}
