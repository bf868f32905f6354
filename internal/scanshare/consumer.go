package scanshare

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/sqlengine"
)

// consumerFactory is the ScanSourceFactory installed on a shared
// participant's plan: one split whose rows arrive from the producer.
type consumerFactory struct {
	p      *participant
	schema sqlengine.RowSchema
}

func (f *consumerFactory) NumSplits() (int, error) { return 1, nil }

func (f *consumerFactory) Schema() (sqlengine.RowSchema, error) { return f.schema, nil }

func (f *consumerFactory) Open(split int, m *sqlengine.Metrics) (sqlengine.RowSource, error) {
	if split != 0 {
		return nil, fmt.Errorf("scanshare: consumer has a single split, got open(%d)", split)
	}
	m.MarkScanMode(sqlengine.ScanShared)
	if m.Span != nil {
		m.Span.Set("source", "scanshare")
	}
	s := &consumerSource{p: f.p, m: m, width: len(f.schema.Cols)}
	f.p.src.Store(s)
	return s, nil
}

// consumerSource receives the producer's batches. It implements BatchSource
// (the executor's fast path) and RowSource (the row-at-a-time shim).
type consumerSource struct {
	p     *participant
	m     *sqlengine.Metrics
	width int
	eof   bool

	// hold buffers the current batch for the RowSource shim; sweepHold
	// returns it to the pool if the query abandons the source mid-batch.
	hold    *sqlengine.RowBatch
	holdN   int
	holdPos int
}

// recv blocks for the next message. ok=false means end of stream: either
// the producer finished (check p.g.err) or this query's context fired (err
// set, consumer detached).
func (s *consumerSource) recv() (demuxMsg, bool, error) {
	select {
	case msg, ok := <-s.p.ch:
		if !ok {
			return demuxMsg{}, false, nil
		}
		return msg, true, nil
	case <-s.p.qctx.Done():
		s.p.detach()
		s.p.g.s.c.detach.Inc()
		return demuxMsg{}, false, s.p.qctx.Err()
	}
}

// finish resolves the clean end of stream: surface the producer's error to
// this consumer, or — on success — fold the producer's single-pass metrics
// into exactly one consumer's totals, so engine counters account the shared
// scan once.
func (s *consumerSource) finish() error {
	s.eof = true
	if err := s.p.g.err; err != nil {
		return err
	}
	s.p.g.claim(s.m)
	return nil
}

// NextBatch implements sqlengine.BatchSource: copy the producer's batch into
// the executor's batch and return the producer's to the pool.
func (s *consumerSource) NextBatch(b *sqlengine.RowBatch) (int, error) {
	if s.eof {
		return 0, nil
	}
	msg, ok, err := s.recv()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, s.finish()
	}
	n := msg.n
	if n > b.Capacity() || len(msg.b.Cols) != len(b.Cols) {
		sqlengine.PutRowBatch(msg.b)
		return 0, fmt.Errorf("scanshare: batch shape mismatch (%d rows x %d cols into %d x %d)",
			n, len(msg.b.Cols), b.Capacity(), len(b.Cols))
	}
	for c := range msg.b.Cols {
		//lint:ignore arenaescape datum structs are value-copied out before msg.b returns to the pool; their string backings are views of the immutable part file (orc decoder.view) or extractor copies, never pool slab memory
		copy(b.Cols[c][:n], msg.b.Cols[c][:n])
	}
	sqlengine.PutRowBatch(msg.b)
	return n, nil
}

// Next implements sqlengine.RowSource for the row-at-a-time escape hatch.
func (s *consumerSource) Next() ([]datum.Datum, error) {
	for s.hold == nil || s.holdPos >= s.holdN {
		if s.hold != nil {
			sqlengine.PutRowBatch(s.hold)
			s.hold = nil
		}
		if s.eof {
			return nil, nil
		}
		msg, ok, err := s.recv()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, s.finish()
		}
		s.hold, s.holdN, s.holdPos = msg.b, msg.n, 0
	}
	row := make([]datum.Datum, s.width)
	for c := 0; c < s.width; c++ {
		row[c] = s.hold.Cols[c][s.holdPos]
	}
	s.holdPos++
	return row, nil
}

// sweepHold returns the row-shim's held batch to the pool. Called from
// Release after the query's executor has finished with the source, so it
// never races Next/NextBatch.
func (s *consumerSource) sweepHold() {
	if s.hold != nil {
		sqlengine.PutRowBatch(s.hold)
		s.hold = nil
	}
}
