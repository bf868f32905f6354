package sqlengine

import (
	"sync/atomic"

	"repro/internal/jsonpath"
)

// ParseMeter accumulates JSON-parsing work across a query execution. It is
// updated atomically because scan partitions run in parallel.
type ParseMeter struct {
	Docs    atomic.Int64 // documents parsed / indexed
	Bytes   atomic.Int64 // bytes actually scanned by the JSON parser
	Skipped atomic.Int64 // bytes never scanned (streaming early exit)
	Calls   atomic.Int64 // get_json_object evaluations
}

// Snapshot returns a plain-struct copy.
func (m *ParseMeter) Snapshot() ParseCounts {
	return ParseCounts{
		Docs:    m.Docs.Load(),
		Bytes:   m.Bytes.Load(),
		Skipped: m.Skipped.Load(),
		Calls:   m.Calls.Load(),
	}
}

// Add adds c to the meter.
func (m *ParseMeter) Add(c ParseCounts) {
	m.Docs.Add(c.Docs)
	m.Bytes.Add(c.Bytes)
	m.Skipped.Add(c.Skipped)
	m.Calls.Add(c.Calls)
}

// ParseCounts is a point-in-time copy of a ParseMeter.
type ParseCounts struct {
	Docs, Bytes, Skipped, Calls int64
}

// ParserBackend evaluates get_json_object against raw JSON text. The engine
// ships exactly one, StreamBackend; the interface is the seam through which
// internal/experiments/baseline plugs in the parsers the paper's figures
// compare against (Jackson-style tree parse, Mison-style structural index).
type ParserBackend interface {
	// Name identifies the backend in experiment output.
	Name() string
	// NewDocEvaluator returns a per-partition evaluator for a plan whose
	// get_json_object calls are indexed by calls. Evaluators are not shared
	// across goroutines.
	NewDocEvaluator(meter *ParseMeter, calls *PathCalls) DocEvaluator
}

// DocEvaluator extracts path values from one document at a time. Extract
// returns the scalar rendering of call's path in doc and whether the value
// was present.
type DocEvaluator interface {
	Extract(doc string, call *JSONPathExpr) (string, bool)
}

// StreamBackend evaluates get_json_object with the streaming multi-path
// extractor (sjson.Parser.Extract): the paths a plan asks of one document
// column — root and wildcard paths included — are compiled once per plan into
// one jsonpath.PathSet (PlanPathCalls), each document is scanned exactly once
// with unrequested subtrees skipped at tokenizer speed, and the scan
// early-exits when every path has resolved.
type StreamBackend struct{}

// Name implements ParserBackend.
func (StreamBackend) Name() string { return "ondemand" }

// NewDocEvaluator implements ParserBackend.
func (StreamBackend) NewDocEvaluator(meter *ParseMeter, calls *PathCalls) DocEvaluator {
	return &streamEval{meter: meter, calls: calls}
}

// streamEval answers every call site from its column's extractor, which
// holds the row's document so its paths cost one scan. Extractors are built
// on first use: an evaluator that is never asked to extract allocates nothing.
type streamEval struct {
	meter *ParseMeter
	calls *PathCalls
	cols  []*jsonpath.Extractor // parallel to calls.Cols
}

func (s *streamEval) Extract(doc string, call *JSONPathExpr) (string, bool) {
	s.meter.Calls.Add(1)
	slot, ok := s.calls.Slot(call)
	if !ok {
		// A call site outside the plan the evaluator was built for.
		s.meter.Docs.Add(1)
		s.meter.Bytes.Add(int64(len(doc)))
		return call.Path.EvalString(doc)
	}
	if s.cols == nil {
		s.cols = make([]*jsonpath.Extractor, len(s.calls.Cols))
	}
	x := s.cols[slot.Col]
	if x == nil {
		x = jsonpath.NewExtractor(s.calls.Cols[slot.Col].Set)
		s.cols[slot.Col] = x
	}
	if !x.Holds(doc) {
		scanned := x.Extract(doc)
		s.meter.Docs.Add(1)
		s.meter.Bytes.Add(int64(scanned))
		s.meter.Skipped.Add(int64(len(doc) - scanned))
	}
	return x.Scalar(slot.Path)
}
