package scanshare

import (
	"errors"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/sqlengine"
)

// extractGroup is one storage column's merged extraction: the union trie of
// every participant's paths over that column, writing n extracted values
// into batch columns [base, base+n).
type extractGroup struct {
	colIdx int
	base   int
	n      int
	x      *jsonpath.Extractor
}

// producer runs the single shared pass: it reads the underlying splits
// sequentially (preserving the split-order row sequence an unshared query
// would produce), extracts the merged path union once per document, and
// sends every batch down each attached consumer's pipe.
type producer struct {
	g       *group
	e       *sqlengine.Engine
	factory sqlengine.ScanSourceFactory
	cons    []*participant

	// extract is empty in broadcast mode.
	extract  []extractGroup
	nStorage int // storage columns read from the factory
	width    int // storage + extracted columns sent to consumers

	// pm meters the single pass; exactly one consumer claims it at EOF.
	pm *sqlengine.Metrics

	// cols is the width-column view of the current batch that every pipe
	// copies from: the lent batch's storage vectors, then the producer's own
	// extraction vectors (cols[nStorage+x][r] is extracted column x of row r).
	cols [][]datum.Datum
}

// errNoConsumers stops the scan once every consumer has left.
var errNoConsumers = errors.New("scanshare: no consumers left")

// run executes the shared pass. It is the only closer of the consumer
// pipes and always closes them, even on error or panic, after writing
// g.err — consumers observe the close, then read g.err (the close is the
// happens-before edge).
func (pr *producer) run() {
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = errProducerPanic(v)
			}
		}()
		return pr.scan()
	}()
	pr.g.err = err

	served := pr.liveCount()
	for _, p := range pr.cons {
		p.pipe.Close()
	}
	if err == nil && served > 1 {
		// The pass ran once instead of `served` times: credit the avoided
		// repeats.
		pr.g.s.c.bytesSaved.Add(pr.pm.BytesRead.Load() * int64(served-1))
		pr.g.s.c.parseBytesSaved.Add(pr.pm.Parse.Bytes.Load() * int64(served-1))
	}
}

// scan reads every split, extracts, and fans out.
func (pr *producer) scan() error {
	nSplits, err := pr.factory.NumSplits()
	if err != nil {
		return err
	}
	if pr.liveCount() == 0 {
		return nil // everyone left: read nothing
	}
	pr.cols = make([][]datum.Datum, pr.width)
	for x := pr.nStorage; x < pr.width; x++ {
		pr.cols[x] = make([]datum.Datum, pr.e.BatchSize())
	}
	err = pr.e.ScanBatches(pr.factory, 0, nSplits, pr.pm, func(batch *sqlengine.RowBatch, n int) error {
		copy(pr.cols, batch.Cols)
		pr.extractBatch(n)
		if !pr.fanOut(n) {
			return errNoConsumers
		}
		return nil
	})
	if err == errNoConsumers {
		return nil
	}
	return err
}

func (pr *producer) liveCount() int {
	n := 0
	for _, p := range pr.cons {
		if !p.pipe.Abandoned() {
			n++
		}
	}
	return n
}

// extractBatch runs the merged tries over the first n rows of the document
// columns, filling the extraction vectors. One streaming pass per (document,
// column-group): shared path prefixes are descended once and the scan
// early-exits after the last wanted path, with the skipped tail metered like
// every other stream parse.
func (pr *producer) extractBatch(n int) {
	for gi := range pr.extract {
		g := &pr.extract[gi]
		col := pr.cols[g.colIdx]
		ext := pr.cols[g.base:]
		for r := 0; r < n; r++ {
			d := col[r]
			for k := 0; k < g.n; k++ {
				ext[k][r] = datum.NullOf(datum.TypeString)
			}
			if d.Null {
				continue
			}
			scanned := g.x.Extract(d.S)
			pr.pm.Parse.Docs.Add(1)
			pr.pm.Parse.Bytes.Add(int64(scanned))
			pr.pm.Parse.Skipped.Add(int64(len(d.S) - scanned))
			pr.pm.Parse.Calls.Add(int64(g.n))
			for k := 0; k < g.n; k++ {
				if v, ok := g.x.Scalar(k); ok {
					ext[k][r] = datum.Str(v)
				}
			}
		}
	}
}

// fanOut sends the first n rows of pr.cols to every consumer still reading.
// Copy-on-demux: each pipe takes its own copy, so a consumer that leaves
// mid-send neither stalls the producer nor touches its siblings' rows.
// Returns false when no consumers remain.
func (pr *producer) fanOut(n int) bool {
	any := false
	for _, p := range pr.cons {
		if p.pipe.Send(pr.cols, n) {
			any = true
		}
	}
	return any
}
