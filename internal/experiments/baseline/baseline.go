// Package baseline holds the JSON parsers the paper's figures compare
// against — a Jackson-style full tree parse (Fig 3, Fig 12-15 "spark") and a
// Mison-style structural-index projection (Fig 15) — as sqlengine
// ParserBackends: each opens the extractor a scan's batch extraction
// (sqlengine.SplitExtraction.Fill) drives over one document column. It also
// holds the Sparser study's raw needle test (SparserAdmits). They are
// measurement baselines and test references only: the engine's own extractor
// is the streaming sqlengine.StreamBackend, and CI checks with `go list
// -deps` that maxson-serve, maxson-sql and maxson-daily do not link this
// package.
package baseline

import (
	"strings"

	"repro/internal/datum"
	"repro/internal/experiments/baseline/mison"
	"repro/internal/jsonpath"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
)

// ---- Jackson-style backend: full tree parse per document ----

// JacksonBackend parses the whole document into a tree and navigates it for
// each path, the way SparkSQL's default Jackson-based get_json_object
// behaves. The tree is kept while its document repeats, as SparkSQL caches
// the parsed tree per input string.
type JacksonBackend struct{}

// Name implements sqlengine.ParserBackend.
func (JacksonBackend) Name() string { return "jackson" }

// NewExtractor implements sqlengine.ParserBackend.
func (JacksonBackend) NewExtractor(set *jsonpath.PathSet) sqlengine.ColumnExtractor {
	return &treeExtractor{paths: set.Paths()}
}

// treeExtractor answers every path from the current document's tree; a
// malformed document has none, so every path is NULL.
type treeExtractor struct {
	paths  []*jsonpath.Path
	doc    string
	loaded bool
	root   *sjson.Value
	err    error
}

// Extract implements sqlengine.ColumnExtractor: a tree parse reads the whole
// document.
func (t *treeExtractor) Extract(doc string) int {
	t.doc, t.loaded = doc, true
	t.root, t.err = sjson.ParseString(doc)
	return len(doc)
}

// Holds implements sqlengine.ColumnExtractor.
func (t *treeExtractor) Holds(doc string) bool { return t.loaded && t.doc == doc }

// Forget implements sqlengine.ColumnExtractor.
func (t *treeExtractor) Forget() { t.doc, t.loaded, t.root, t.err = "", false, nil, nil }

// Err implements sqlengine.ColumnExtractor.
func (t *treeExtractor) Err() error { return t.err }

// Scalar implements sqlengine.ColumnExtractor.
func (t *treeExtractor) Scalar(i int) (string, bool) {
	if t.root == nil {
		return "", false
	}
	v := t.paths[i].Eval(t.root)
	if v.IsNull() {
		return "", false
	}
	return v.Scalar(), true
}

// ---- Mison-style backend: structural index projection ----

// MisonBackend projects paths straight out of the raw bytes via the
// structural index, skipping tree materialization.
type MisonBackend struct{}

// Name implements sqlengine.ParserBackend.
func (MisonBackend) Name() string { return "mison" }

// NewExtractor implements sqlengine.ParserBackend: one projector over the
// set's point paths, so each document's structural index is built once and
// every field projects out of it — Mison's intended mode. Wildcard paths fan
// out over arrays, which the index cannot serve (Mison's real limitation):
// they take a tree parse of the document.
func (MisonBackend) NewExtractor(set *jsonpath.PathSet) sqlengine.ColumnExtractor {
	x := &indexExtractor{slot: make([]int, set.Len())}
	var points []*jsonpath.Path
	for i, p := range set.Paths() {
		x.slot[i] = -1
		if !p.HasWildcard() {
			x.slot[i] = len(points)
			points = append(points, p)
		}
	}
	if len(points) > 0 {
		x.pr = mison.NewProjector(points...)
	}
	if len(points) < set.Len() {
		x.tree = &treeExtractor{paths: set.Paths()}
	}
	return x
}

// indexExtractor projects the set's point paths (slot[i] >= 0 is path i's
// projector output) and tree-parses for the wildcard ones.
type indexExtractor struct {
	slot   []int
	pr     *mison.Projector
	res    []mison.Result
	tree   *treeExtractor
	doc    string
	loaded bool
}

// Extract implements sqlengine.ColumnExtractor: the index is built over the
// whole document.
func (x *indexExtractor) Extract(doc string) int {
	x.doc, x.loaded = doc, true
	if x.pr != nil {
		x.res = x.pr.Project([]byte(doc))
	}
	if x.tree != nil {
		x.tree.Extract(doc)
	}
	return len(doc)
}

// Holds implements sqlengine.ColumnExtractor.
func (x *indexExtractor) Holds(doc string) bool { return x.loaded && x.doc == doc }

// Forget implements sqlengine.ColumnExtractor.
func (x *indexExtractor) Forget() {
	x.doc, x.loaded, x.res = "", false, nil
	if x.tree != nil {
		x.tree.Forget()
	}
}

// Err implements sqlengine.ColumnExtractor: the projector reports no syntax
// error; the tree parse, when there is one, does.
func (x *indexExtractor) Err() error {
	if x.tree != nil {
		return x.tree.Err()
	}
	return nil
}

// Scalar implements sqlengine.ColumnExtractor.
func (x *indexExtractor) Scalar(i int) (string, bool) {
	if x.slot[i] < 0 {
		return x.tree.Scalar(i)
	}
	r := x.res[x.slot[i]]
	return r.Scalar, r.Present
}

// ---- Sparser-style raw filter: a needle test before any parse ----

// SparserAdmits is the raw filter of Sparser (Palkar et al., VLDB 2018) for
// an equality conjunct get_json_object(col, p) = needle, applied to doc, one
// row's value of col before it is parsed. It reports whether the row goes on
// to the parser, and the bytes the test examined. A NULL document cannot
// satisfy the equality and is skipped unexamined. A document is admitted when
// it holds the needle, or a backslash, which may hide the value's text behind
// an escape. The test is sound only where a matching value's text is the
// needle verbatim: a number written 1E2 renders as 100 and is skipped.
func SparserAdmits(doc datum.Datum, needle string) (admitted bool, examined int) {
	if doc.Null {
		return false, 0
	}
	return strings.Contains(doc.S, needle) || strings.ContainsRune(doc.S, '\\'), len(doc.S)
}
