package scanshare

import "repro/internal/sqlengine"

// producer runs the single shared pass: it reads the underlying splits
// sequentially (preserving the split-order row sequence an unshared query
// would produce) and sends every batch down each attached consumer's pipe. Its
// factory extracts the union of the participants' extractions — the engine's
// split reader for a raw scan, the Unioner's union for a combined one — so
// each document is parsed once for every participant.
type producer struct {
	g       *group
	e       *sqlengine.Engine
	factory sqlengine.ScanSourceFactory
	cons    []*participant

	// pm meters the single pass; exactly one consumer claims it (group.claim).
	pm *sqlengine.Metrics
}

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

	served := len(pr.cons) - int(pr.g.failed.Load())
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

// scan reads every split and fans each batch out.
func (pr *producer) scan() error {
	nSplits, err := pr.factory.NumSplits()
	if err != nil {
		return err
	}
	if pr.liveCount() == 0 {
		return nil // everyone left: read nothing
	}
	return pr.e.ScanBatches(pr.factory, 0, nSplits, -1, pr.pm, func(batch *sqlengine.RowBatch, n int) error {
		if !pr.fanOut(batch, n) {
			return sqlengine.StopScan
		}
		return nil
	})
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

// fanOut sends the first n rows of the lent batch to every consumer still
// reading, each the columns its plan reads. Copy-on-demux: each pipe takes
// its own copy, so a consumer that leaves mid-send neither stalls the
// producer nor touches its siblings' rows. Returns false when no consumer
// reads on: every one has left, at its end, its LIMIT or an error.
func (pr *producer) fanOut(batch *sqlengine.RowBatch, n int) bool {
	for _, p := range pr.cons {
		for j, c := range p.cols {
			p.view[j] = batch.Cols[c]
		}
		p.pipe.Send(p.view, n)
		clear(p.view) // no alias into the lent batch outlives the send
	}
	return pr.liveCount() > 0
}
