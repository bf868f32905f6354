// Package baseline holds the JSON parsers the paper's figures compare
// against — a Jackson-style full tree parse (Fig 3, Fig 12-15 "spark") and a
// Mison-style structural-index projection (Fig 15) — as sqlengine
// ParserBackends. They are measurement baselines and test references only:
// the engine's own evaluator is the streaming sqlengine.StreamBackend, and CI
// checks with `go list -deps` that maxson-serve, maxson-sql and maxson-daily
// do not link this package.
package baseline

import (
	"repro/internal/experiments/baseline/mison"
	"repro/internal/jsonpath"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
)

// ---- Jackson-style backend: full tree parse per document ----

// JacksonBackend parses the whole document into a tree and navigates it,
// the way SparkSQL's default Jackson-based get_json_object behaves. A
// per-document memo avoids re-parsing when several paths hit the same
// document in one row (SparkSQL caches the parsed tree per input string in
// the same way).
type JacksonBackend struct{}

// Name implements sqlengine.ParserBackend.
func (JacksonBackend) Name() string { return "jackson" }

// NewDocEvaluator implements sqlengine.ParserBackend.
func (JacksonBackend) NewDocEvaluator(meter *sqlengine.ParseMeter, _ *sqlengine.PathCalls) sqlengine.DocEvaluator {
	return &jacksonEval{meter: meter}
}

type jacksonEval struct {
	meter   *sqlengine.ParseMeter
	lastDoc string
	lastVal *sjson.Value
	lastErr bool
}

func (j *jacksonEval) Extract(doc string, call *sqlengine.JSONPathExpr) (string, bool) {
	j.meter.Calls.Add(1)
	return j.eval(doc, call.Path)
}

func (j *jacksonEval) eval(doc string, path *jsonpath.Path) (string, bool) {
	if doc != j.lastDoc || (j.lastVal == nil && !j.lastErr) {
		root, err := sjson.ParseString(doc)
		j.meter.Docs.Add(1)
		j.meter.Bytes.Add(int64(len(doc)))
		j.lastDoc = doc
		j.lastErr = err != nil
		if err != nil {
			j.lastVal = nil
		} else {
			j.lastVal = root
		}
	}
	if j.lastVal == nil {
		return "", false
	}
	v := path.Eval(j.lastVal)
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

// NewDocEvaluator implements sqlengine.ParserBackend.
func (MisonBackend) NewDocEvaluator(meter *sqlengine.ParseMeter, _ *sqlengine.PathCalls) sqlengine.DocEvaluator {
	return &misonEval{meter: meter, pathIdx: make(map[string]int)}
}

// misonEval batches every path of the query through one projector, so each
// document's structural index is built once and all fields project out of
// it — Mison's intended mode. The path set grows as the first row
// encounters each get_json_object call; later rows project all paths in a
// single pass.
type misonEval struct {
	meter   *sqlengine.ParseMeter
	paths   []*jsonpath.Path
	pathIdx map[string]int
	pr      *mison.Projector
	lastDoc string
	lastRes []mison.Result
	// tree serves wildcard paths the index cannot.
	tree *jacksonEval
}

func (m *misonEval) Extract(doc string, call *sqlengine.JSONPathExpr) (string, bool) {
	m.meter.Calls.Add(1)
	path := call.Path
	// The structural index serves point lookups only; wildcard paths fan
	// out over arrays and need the tree (Mison's real limitation).
	if path.HasWildcard() {
		if m.tree == nil {
			m.tree = &jacksonEval{meter: m.meter}
		}
		return m.tree.eval(doc, path)
	}
	key := path.Canonical()
	idx, known := m.pathIdx[key]
	if !known {
		m.paths = append(m.paths, path)
		idx = len(m.paths) - 1
		m.pathIdx[key] = idx
		m.pr = mison.NewProjector(m.paths...)
		m.lastRes = nil // force re-projection with the grown path set
	}
	if doc != m.lastDoc || m.lastRes == nil {
		m.lastRes = m.pr.Project([]byte(doc))
		m.lastDoc = doc
		m.meter.Docs.Add(1)
		m.meter.Bytes.Add(int64(len(doc)))
	}
	res := m.lastRes[idx]
	return res.Scalar, res.Present
}
