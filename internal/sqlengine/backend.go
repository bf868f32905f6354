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
	Calls   atomic.Int64 // get_json_object calls: reads of an extracted column
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

// ParserBackend opens the extractor a scan runs over one document column.
// The engine ships exactly one, StreamBackend; the interface is the seam
// through which internal/experiments/baseline plugs in the parsers the
// paper's figures compare against (Jackson-style tree parse, Mison-style
// structural index). Every scan the engine runs for a query extracts through
// its engine's backend; the cacher's populate and ingest always stream.
type ParserBackend interface {
	// Name identifies the backend in experiment output.
	Name() string
	// NewExtractor returns an extractor of set's paths. Extractors are not
	// shared across goroutines; the set may be.
	NewExtractor(set *jsonpath.PathSet) ColumnExtractor
}

// ColumnExtractor extracts one path set from the documents of one column, a
// document at a time. *jsonpath.Extractor is the engine's; SplitExtraction.Fill
// drives it and meters what it reports.
type ColumnExtractor interface {
	// Extract makes doc the current document and returns the bytes it
	// scanned.
	Extract(doc string) (scanned int)
	// Holds reports whether doc is the current document.
	Holds(doc string) bool
	// Forget drops the current document.
	Forget()
	// Err is the syntax error the current document's scan met, nil if none.
	Err() error
	// Scalar returns the get_json_object rendering of the set's i-th path in
	// the current document, false for NULL.
	Scalar(i int) (string, bool)
}

// StreamBackend extracts with the streaming multi-path extractor
// (jsonpath.Extractor over sjson.Parser.Extract): the paths a scan asks of
// one document column — root and wildcard paths included — share one
// PathSet, each document is scanned once with unrequested subtrees skipped at
// tokenizer speed, and the scan early-exits when every path has resolved.
type StreamBackend struct{}

// Name implements ParserBackend.
func (StreamBackend) Name() string { return "ondemand" }

// NewExtractor implements ParserBackend.
func (StreamBackend) NewExtractor(set *jsonpath.PathSet) ColumnExtractor {
	return jsonpath.NewExtractor(set)
}
