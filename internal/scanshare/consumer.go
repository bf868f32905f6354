package scanshare

import (
	"fmt"

	"repro/internal/sqlengine"
)

// consumerFactory is the ScanSourceFactory installed on a shared
// participant's plan: one split whose rows arrive from the producer.
type consumerFactory struct{ p *participant }

func (f *consumerFactory) NumSplits() (int, error) { return 1, nil }

func (f *consumerFactory) Schema() (sqlengine.RowSchema, error) { return f.p.plan.Scan.Schema(), nil }

func (f *consumerFactory) Open(split int, m *sqlengine.Metrics) (sqlengine.BatchSource, error) {
	if split != 0 {
		return nil, fmt.Errorf("scanshare: consumer has a single split, got open(%d)", split)
	}
	m.MarkScanMode(sqlengine.ScanShared)
	if m.Span != nil {
		m.Span.Set("source", "scanshare")
	}
	return &consumerSource{p: f.p, m: m}, nil
}

// consumerSource receives the producer's batches.
type consumerSource struct {
	p   *participant
	m   *sqlengine.Metrics
	eof bool
}

// NextBatch implements sqlengine.BatchSource: the pipe copies the producer's
// next batch into the executor's. A clean end of stream surfaces the
// producer's error to this consumer, or — on success — folds the producer's
// single-pass metrics into exactly one consumer's totals, so engine counters
// account the shared scan once.
func (s *consumerSource) NextBatch(b *sqlengine.RowBatch) (int, error) {
	if s.eof {
		return 0, nil
	}
	n, err := s.p.pipe.Recv(s.p.qctx, b)
	if err != nil {
		if s.p.qctx.Err() != nil {
			// Cancelled: tell the producer now rather than at Release.
			s.p.pipe.Abandon()
			s.p.g.s.c.detach.Inc()
		}
		return 0, err
	}
	if n > 0 {
		return n, nil
	}
	s.eof = true
	if err := s.p.g.err; err != nil {
		return 0, err
	}
	s.p.g.claim(s.m)
	return 0, nil
}
