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

func (f *consumerFactory) Open(split int, m *sqlengine.Metrics, _ sqlengine.BatchSource) (sqlengine.BatchSource, error) {
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
	p      *participant
	m      *sqlengine.Metrics
	eof    bool
	failed bool
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
		s.failed = true
		if s.p.qctx.Err() != nil {
			s.p.g.s.c.detach.Inc()
		}
		return 0, err
	}
	if n > 0 {
		return n, nil
	}
	s.eof = true
	if err := s.p.g.err; err != nil {
		s.failed = true
		return 0, err
	}
	s.p.g.claim(s.m)
	return 0, nil
}

// Stop implements the executor's stop hook (sqlengine.BatchSource): the
// query reads no further. The pipe is abandoned at once, so a query that has
// its LIMIT's rows holds up neither the producer nor its siblings. When it
// left early and cleanly, and last, no consumer will reach the end of the
// pass to claim its metrics: this one claims what the pass has metered, all
// of it but a batch the producer may be reading for nobody.
func (s *consumerSource) Stop() {
	failed := s.failed || s.p.qctx.Err() != nil
	if s.p.leave(failed) && !failed && !s.eof {
		s.p.g.claim(s.m)
	}
}
