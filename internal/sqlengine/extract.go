package sqlengine

import (
	"slices"

	"repro/internal/datum"
	"repro/internal/jsonpath"
)

// Extraction is one column a scan extracts instead of reading it: the
// get_json_object rendering of Path in the document column Column, as a
// TypeString value. The planner makes one of every distinct call a scan's
// plan reads.
type Extraction struct {
	Column string
	Path   *jsonpath.Path
}

// BatchExtraction is a compiled extraction list: the one place a batch of
// documents becomes extracted string columns, one per list entry in list
// order, and the one place that work is metered. The paths of one document
// column share one PathSet, so a document is scanned once however many of its
// paths the list names. It is immutable and shared; each split extracts
// through its own SplitExtraction.
type BatchExtraction struct {
	// reads are the columns documents are read from, in the order a cursor
	// decodes them: the columns compiled for, then the document columns
	// outside them.
	reads []string
	docs  []docExtraction
	width int // the extracted columns, one per list entry
}

// docExtraction is what the list asks of one document column.
type docExtraction struct {
	in  int               // the column's position in reads
	set *jsonpath.PathSet // its paths, in list order
	out []int             // the output column of each path of set
}

// CompileExtraction compiles list for a reader that decodes cols: a document
// column among cols is read where it is, the others after them (Reads). An
// empty list compiles to nil; a nil Path panics, as a bug.
func CompileExtraction(cols []string, list []Extraction) *BatchExtraction {
	if len(list) == 0 {
		return nil
	}
	x := &BatchExtraction{reads: slices.Clip(cols), width: len(list)}
	// A document column's output columns are one run of out, its paths one
	// run of paths, gathered at its first entry.
	out := make([]int, 0, len(list))
	paths := make([]*jsonpath.Path, 0, len(list))
	for first, e := range list {
		if slices.ContainsFunc(list[:first], func(f Extraction) bool { return f.Column == e.Column }) {
			continue
		}
		in := slices.Index(x.reads, e.Column)
		if in < 0 {
			in = len(x.reads)
			x.reads = append(x.reads, e.Column)
		}
		start := len(out)
		for o := first; o < len(list); o++ {
			if list[o].Column == e.Column {
				out = append(out, o)
				paths = append(paths, list[o].Path)
			}
		}
		x.docs = append(x.docs, docExtraction{in: in, set: jsonpath.MustPathSet(paths[start:]...), out: out[start:]})
	}
	return x
}

// Reads returns the columns a cursor decodes for the extraction: the columns
// it was compiled for, then every document column outside them.
func (x *BatchExtraction) Reads() []string { return x.reads }

// Split opens the extraction for one split: one extractor of backend's per
// document column, each holding its column's last document.
func (x *BatchExtraction) Split(backend ParserBackend) SplitExtraction {
	s := SplitExtraction{x: x, xs: make([]ColumnExtractor, len(x.docs))}
	for d := range x.docs {
		s.xs[d] = backend.NewExtractor(x.docs[d].set)
	}
	return s
}

// SplitExtraction is one split's state of a BatchExtraction. Not safe for
// concurrent use.
type SplitExtraction struct {
	x  *BatchExtraction
	xs []ColumnExtractor // parallel to x.docs
}

// Reset starts the next split: every column's first document is scanned,
// whatever the previous split ended on.
func (s *SplitExtraction) Reset() {
	for _, x := range s.xs {
		x.Forget()
	}
}

// Fill is the batch kernel. in holds n rows of the columns Reads lists, and
// Fill sets rows [0, n) of the last columns of out, the extracted columns in
// list order, under one rule:
//   - a NULL document gives NULL for every path;
//   - an absent path or an explicit JSON null gives NULL, and a malformed
//     document gives each path what extracting it alone gives;
//   - a document equal to the last one its column scanned in this split is
//     not scanned again, but a malformed one still counts as malformed in
//     every row it fills.
//
// It returns the batch's parse work (documents scanned, bytes scanned and
// skipped) and its malformed rows, per document column, for the caller to
// add once per batch. It counts no calls: a call is a plan's read of an
// extracted column, which the executor counts.
func (s *SplitExtraction) Fill(in, out [][]datum.Datum, n int) (c ParseCounts, malformed int64) {
	null := datum.NullOf(datum.TypeString)
	out = out[len(out)-s.x.width:]
	for d := range s.x.docs {
		g, x := &s.x.docs[d], s.xs[d]
		for r, doc := range in[g.in][:n] {
			if doc.Null {
				for _, o := range g.out {
					out[o][r] = null
				}
				continue
			}
			if !x.Holds(doc.S) {
				scanned := x.Extract(doc.S)
				c.Docs++
				c.Bytes += int64(scanned)
				c.Skipped += int64(len(doc.S) - scanned)
			}
			if x.Err() != nil {
				malformed++
			}
			for k, o := range g.out {
				v := null
				if sv, ok := x.Scalar(k); ok {
					v = datum.Str(sv)
				}
				out[o][r] = v
			}
		}
	}
	return c, malformed
}
