package scanshare

import (
	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/sqlengine"
)

// demuxMsg is one batch handed producer→consumer. The batch is pool-owned
// by exactly one side at a time: the producer until the send completes, the
// consumer afterwards.
type demuxMsg struct {
	b *sqlengine.RowBatch
	n int
}

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
// demultiplexes copy-on-demux batches to every attached consumer.
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

	// ext[x][r] holds extracted column nStorage+x for row r of the current
	// batch, copied into every consumer's outgoing batch.
	ext [][]datum.Datum
}

// run executes the shared pass. It is the only closer of the consumer
// channels and always closes them, even on error or panic, after writing
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

	served := 0
	for _, p := range pr.cons {
		if !p.isDetached() {
			served++
		}
		// Sweep batches a detached consumer will never read. Its Release
		// drains concurrently — each buffered message goes to exactly one
		// of us, so the pool stays balanced either way.
		if p.isDetached() {
		drain:
			for {
				select {
				case msg, ok := <-p.ch:
					if !ok {
						break drain
					}
					sqlengine.PutRowBatch(msg.b)
				default:
					break drain
				}
			}
		}
		close(p.ch)
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
	bcap := pr.e.BatchSize()
	batch := sqlengine.GetRowBatch(pr.nStorage, bcap)
	defer sqlengine.PutRowBatch(batch)
	if len(pr.extract) > 0 {
		nExt := pr.width - pr.nStorage
		pr.ext = make([][]datum.Datum, nExt)
		for i := range pr.ext {
			pr.ext[i] = make([]datum.Datum, bcap)
		}
	}

	for split := 0; split < nSplits; split++ {
		if pr.liveCount() == 0 {
			return nil // everyone left: stop reading
		}
		src, err := pr.factory.Open(split, pr.pm)
		if err != nil {
			return err
		}
		bs, ok := src.(sqlengine.BatchSource)
		if !ok {
			bs = &sqlengine.RowSourceAdapter{Src: src}
		}
		for {
			n, err := bs.NextBatch(batch)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			pr.extractBatch(batch, n)
			if !pr.fanOut(batch, n) {
				return nil
			}
		}
	}
	return nil
}

func (pr *producer) liveCount() int {
	n := 0
	for _, p := range pr.cons {
		if !p.isDetached() {
			n++
		}
	}
	return n
}

// extractBatch runs the merged tries over the batch's document columns,
// filling pr.ext. One streaming pass per (document, column-group): shared
// path prefixes are descended once and the scan early-exits after the last
// wanted path, with the skipped tail metered like every other stream parse.
func (pr *producer) extractBatch(batch *sqlengine.RowBatch, n int) {
	for gi := range pr.extract {
		g := &pr.extract[gi]
		col := batch.Cols[g.colIdx]
		ext := pr.ext[g.base-pr.nStorage:]
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

// fanOut copies the current batch to every live consumer. Copy-on-demux:
// each consumer gets its own pooled batch; after the send the producer
// never touches it again. A consumer that detaches mid-send keeps the
// producer moving — the pending batch is returned to the pool and the
// consumer is skipped from then on. Returns false when no consumers remain.
func (pr *producer) fanOut(batch *sqlengine.RowBatch, n int) bool {
	any := false
	for _, p := range pr.cons {
		if p.isDetached() {
			continue
		}
		out := sqlengine.GetRowBatch(pr.width, n)
		for c := 0; c < pr.nStorage; c++ {
			//lint:ignore arenaescape copy-on-demux: datum structs are value-copied into the consumer's own pooled batch while the producer still holds batch; string backings are views of the immutable part file (orc decoder.view), never pool slab memory
			copy(out.Cols[c][:n], batch.Cols[c][:n])
		}
		for x := pr.nStorage; x < pr.width; x++ {
			copy(out.Cols[x][:n], pr.ext[x-pr.nStorage][:n])
		}
		select {
		case p.ch <- demuxMsg{b: out, n: n}:
			any = true
		case <-p.detached:
			sqlengine.PutRowBatch(out)
		}
	}
	return any
}
