package mison

import (
	"bytes"

	"repro/internal/jsonpath"
	"repro/internal/sjson"
)

// Result is the projection of one JSONPath out of one document.
type Result struct {
	Present bool
	Raw     []byte // raw JSON text of the value (trimmed), aliasing the input
	Scalar  string // get_json_object-style rendering
}

// Stats meters projection work and speculation effectiveness.
type Stats struct {
	Index            IndexStats
	Documents        int64
	FieldsProjected  int64
	SpeculationHits  int64
	SpeculationMiss  int64
	FallbackSearches int64
}

// Projector extracts a fixed set of JSONPaths from raw JSON documents using
// the structural index, without materializing a tree. A Projector is not
// safe for concurrent use (it carries a speculation cache); create one per
// worker.
type Projector struct {
	paths    []*jsonpath.Path
	maxLevel int
	// speculate caches, per top-level member name, the ordinal of its colon
	// among level-1 colons observed in the previous document.
	speculate map[string]int
	stats     Stats
}

// NewProjector compiles a projector for the given paths.
func NewProjector(paths ...*jsonpath.Path) *Projector {
	maxLevel := 1
	for _, p := range paths {
		if d := p.Depth(); d > maxLevel {
			maxLevel = d
		}
	}
	return &Projector{
		paths:     paths,
		maxLevel:  maxLevel,
		speculate: make(map[string]int),
	}
}

// Stats returns accumulated statistics.
func (pr *Projector) Stats() Stats { return pr.stats }

// ResetStats zeroes accumulated statistics.
func (pr *Projector) ResetStats() { pr.stats = Stats{} }

// Project extracts every configured path from doc. The i-th result
// corresponds to the i-th path passed to NewProjector. Raw spans alias doc.
func (pr *Projector) Project(doc []byte) []Result {
	idx := buildIndex(doc, pr.maxLevel, &pr.stats.Index)
	pr.stats.Documents++
	results := make([]Result, len(pr.paths))
	trimmed := trimSpan(doc, 0, int32(len(doc)))
	for i, p := range pr.paths {
		start, end, ok := pr.evalSpan(doc, &idx, p, trimmed.start, trimmed.end, 0)
		if !ok {
			continue
		}
		raw := doc[start:end]
		if isNullLiteral(raw) {
			continue
		}
		results[i] = Result{Present: true, Raw: raw, Scalar: renderScalar(raw)}
		pr.stats.FieldsProjected++
	}
	return results
}

// span is a half-open byte range within the document.
type span struct{ start, end int32 }

// evalSpan resolves path steps from stepIdx onward within the value span
// [start, end), returning the trimmed span of the final value.
func (pr *Projector) evalSpan(doc []byte, idx *index, p *jsonpath.Path, start, end int32, stepIdx int) (int32, int32, bool) {
	steps := p.Steps()
	for si := stepIdx; si < len(steps); si++ {
		st := steps[si]
		sp := trimSpan(doc, start, end)
		start, end = sp.start, sp.end
		if start >= end {
			return 0, 0, false
		}
		// The container level equals nesting depth of its members. The span
		// begins at the '{' or '[' of the container; its members are one
		// level deeper than the container's own position. We derive the
		// member level from the count of steps consumed: top-level object
		// members are level 1, each nesting adds one.
		level := si + 1
		switch st.Kind {
		case jsonpath.StepMember:
			if doc[start] != '{' {
				return 0, 0, false
			}
			vs, ve, ok := pr.findMember(doc, idx, level, start, end, st.Name, si == 0)
			if !ok {
				return 0, 0, false
			}
			start, end = vs, ve
		case jsonpath.StepIndex:
			if doc[start] != '[' {
				return 0, 0, false
			}
			vs, ve, ok := elementSpan(doc, idx, level, start, end, st.Index)
			if !ok {
				return 0, 0, false
			}
			start, end = vs, ve
		}
	}
	sp := trimSpan(doc, start, end)
	return sp.start, sp.end, sp.start < sp.end
}

// findMember locates the value span of key within the object span
// [objStart, objEnd) whose members sit at the given level. For top-level
// members it first tries the speculated colon ordinal from the previous
// document and falls back to a full colon scan on mismatch.
func (pr *Projector) findMember(doc []byte, idx *index, level int, objStart, objEnd int32, key string, speculable bool) (int32, int32, bool) {
	colons := idx.colonsWithin(level, objStart, objEnd)
	if len(colons) == 0 {
		return 0, 0, false
	}
	if speculable {
		if ord, ok := pr.speculate[key]; ok && ord < len(colons) {
			if keyAtColon(doc, colons[ord], key) {
				pr.stats.SpeculationHits++
				return valueSpan(doc, idx, level, colons[ord], objEnd)
			}
			pr.stats.SpeculationMiss++
		}
		pr.stats.FallbackSearches++
	}
	for ord, c := range colons {
		if keyAtColon(doc, c, key) {
			if speculable {
				pr.speculate[key] = ord
			}
			return valueSpan(doc, idx, level, c, objEnd)
		}
	}
	return 0, 0, false
}

// valueSpan returns the span of the value following the colon at position c,
// bounded by the next same-level separator (comma or container close).
func valueSpan(doc []byte, idx *index, level int, c, objEnd int32) (int32, int32, bool) {
	end := idx.sepAfter(level, c)
	if end < 0 || end > objEnd {
		end = objEnd - 1 // objEnd includes the closing brace; exclude it
	}
	sp := trimSpan(doc, c+1, end)
	return sp.start, sp.end, sp.start < sp.end
}

// elementSpan returns the span of array element i within the array span.
func elementSpan(doc []byte, idx *index, level int, arrStart, arrEnd int32, i int) (int32, int32, bool) {
	seps := idx.sepsWithin(level, arrStart, arrEnd)
	// seps ends with the array's closing bracket; element k spans
	// (prev sep, seps[k]).
	if i >= len(seps) {
		return 0, 0, false
	}
	start := arrStart + 1
	if i > 0 {
		start = seps[i-1] + 1
	}
	end := seps[i]
	sp := trimSpan(doc, start, end)
	return sp.start, sp.end, sp.start < sp.end
}

// keyAtColon reports whether the member key immediately preceding the colon
// at position c equals key.
func keyAtColon(doc []byte, c int32, key string) bool {
	i := c - 1
	for i >= 0 && isSpace(doc[i]) {
		i--
	}
	if i < 0 || doc[i] != '"' {
		return false
	}
	closeQ := i
	i--
	for i >= 0 {
		if doc[i] == '"' && !trailingBackslashRunOdd(doc, int(i)) {
			break
		}
		i--
	}
	if i < 0 {
		return false
	}
	raw := doc[i+1 : closeQ]
	if !bytes.ContainsRune(raw, '\\') {
		return string(raw) == key
	}
	// Escaped key: unquote via the JSON parser for exactness.
	v, err := sjson.Parse(doc[i : closeQ+1])
	return err == nil && v.Kind() == sjson.KindString && v.StringVal() == key
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func trimSpan(doc []byte, start, end int32) span {
	for start < end && isSpace(doc[start]) {
		start++
	}
	for end > start && isSpace(doc[end-1]) {
		end--
	}
	return span{start, end}
}

func isNullLiteral(raw []byte) bool { return string(raw) == "null" }

// renderScalar converts a raw value span into get_json_object's rendering:
// strings are unquoted/unescaped, other values keep their JSON text.
func renderScalar(raw []byte) string {
	if len(raw) > 0 && raw[0] == '"' {
		if v, err := sjson.Parse(raw); err == nil && v.Kind() == sjson.KindString {
			return v.StringVal()
		}
	}
	return string(raw)
}
