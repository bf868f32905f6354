package sqlengine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/datum"
)

// poolBalanced fails the test unless every pooled batch taken since start
// is back.
func poolBalanced(t *testing.T, start int64) {
	t.Helper()
	if got := OutstandingBatches(); got != start {
		t.Fatalf("pooled RowBatch leak: outstanding %d at start, %d now", start, got)
	}
}

// intCols is width column vectors of n rows; column c row r holds 100c+r.
func intCols(width, n int) [][]datum.Datum {
	cols := make([][]datum.Datum, width)
	for c := range cols {
		cols[c] = make([]datum.Datum, n)
		for r := range cols[c] {
			cols[c][r] = datum.Int(int64(100*c + r))
		}
	}
	return cols
}

func TestBatchPipeDeliversCopiesInOrder(t *testing.T) {
	start := OutstandingBatches()
	p := NewBatchPipe(2)
	cols := intCols(2, 3)
	go func() {
		for i := 0; i < 5; i++ {
			cols[0][0] = datum.Int(int64(i)) // the sender reuses its vectors
			if !p.Send(cols, 3) {
				t.Error("Send reported an abandoned pipe")
			}
		}
		p.Close()
	}()
	dst := NewRowBatch(2, 8)
	for i := 0; i < 5; i++ {
		n, err := p.Recv(context.Background(), dst)
		if n != 3 || err != nil {
			t.Fatalf("Recv %d = (%d, %v), want (3, nil)", i, n, err)
		}
		if got := dst.Cols[0][0].I; got != int64(i) {
			t.Fatalf("batch %d carries %d: not a copy taken at Send", i, got)
		}
		if got := dst.Cols[1][2].I; got != 102 {
			t.Fatalf("batch %d col 1 row 2 = %d, want 102", i, got)
		}
	}
	for i := 0; i < 2; i++ { // the end of the stream is sticky
		if n, err := p.Recv(context.Background(), dst); n != 0 || err != nil {
			t.Fatalf("Recv after Close = (%d, %v), want (0, nil)", n, err)
		}
	}
	poolBalanced(t, start)
}

// A send that races Abandon resolves one of two ways. This is the first: the
// sender's select takes the queue arm after the consumer's drain already ran,
// so the batch sits in the queue of a pipe nobody reads. Close sweeps it.
func TestBatchPipeCloseSweepsBatchQueuedAfterAbandon(t *testing.T) {
	start := OutstandingBatches()
	p := NewBatchPipe(2)
	p.Abandon()
	p.queue <- pipedBatch{b: getRowBatch(1, 4), n: 4} // Send's queue arm, late
	if got := OutstandingBatches(); got != start+1 {
		t.Fatalf("outstanding = %d, want %d", got, start+1)
	}
	p.Close()
	poolBalanced(t, start)
}

// The second way: the sender, blocked on a full pipe, is released by Abandon
// and drops the batch it was about to queue. When the sender has not parked
// yet the race may still resolve the first way; the pool balances in both.
func TestBatchPipeSendRacesAbandon(t *testing.T) {
	start := OutstandingBatches()
	cols := intCols(2, 4)
	dropped := 0
	for i := 0; i < 300; i++ {
		p := NewBatchPipe(2)
		for j := 0; j < cap(p.queue); j++ {
			p.Send(cols, 4)
		}
		sent := make(chan bool)
		go func() { sent <- p.Send(cols, 4) }() // blocks: the pipe is full
		p.Abandon()
		if !<-sent {
			dropped++
		}
		if p.Send(cols, 4) {
			t.Fatal("Send after Abandon queued a batch")
		}
		p.Close()
		poolBalanced(t, start)
	}
	t.Logf("sender dropped its batch in %d of 300 races", dropped)
}

// Close with batches still queued, for a consumer that abandons afterwards:
// draining a closed channel still yields what was queued.
func TestBatchPipeAbandonAfterCloseDrains(t *testing.T) {
	start := OutstandingBatches()
	p := NewBatchPipe(4)
	cols := intCols(3, 2)
	for i := 0; i < 3; i++ {
		if !p.Send(cols, 2) {
			t.Fatal("Send reported an abandoned pipe")
		}
	}
	p.Close()
	if got := OutstandingBatches(); got != start+3 {
		t.Fatalf("outstanding = %d with 3 batches queued, want %d", got, start+3)
	}
	p.Abandon()
	p.Abandon() // idempotent
	poolBalanced(t, start)
}

func TestBatchPipeRecvCancelledMidStream(t *testing.T) {
	start := OutstandingBatches()
	p := NewBatchPipe(2)
	cols := intCols(1, 2)
	dst := NewRowBatch(1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	p.Send(cols, 2)
	if n, err := p.Recv(ctx, dst); n != 2 || err != nil {
		t.Fatalf("first Recv = (%d, %v)", n, err)
	}
	got := make(chan error)
	go func() {
		_, err := p.Recv(ctx, dst) // blocks: nothing queued, not closed
		got <- err
	}()
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Recv err = %v, want context.Canceled", err)
	}
	// The producer is still running: it queues one more before it notices.
	p.Send(cols, 2)
	p.Abandon()
	if p.Send(cols, 2) {
		t.Fatal("Send after Abandon queued a batch")
	}
	p.Close()
	poolBalanced(t, start)
}

func TestBatchPipeShapeMismatch(t *testing.T) {
	start := OutstandingBatches()
	p := NewBatchPipe(2)
	p.Send(intCols(2, 3), 3)
	p.Send(intCols(2, 3), 3)
	for name, dst := range map[string]*RowBatch{
		"width":    NewRowBatch(3, 8),
		"capacity": NewRowBatch(2, 2),
	} {
		n, err := p.Recv(context.Background(), dst)
		if n != 0 || err == nil || !strings.Contains(err.Error(), "shape mismatch") {
			t.Errorf("%s: Recv = (%d, %v), want a shape mismatch", name, n, err)
		}
	}
	poolBalanced(t, start) // a batch that does not fit is dropped, not leaked
	p.Abandon()
	p.Close()
	poolBalanced(t, start)
}

// lendFactory is two splits of three one-column batches each; the batch
// numbered failAt (counting from 0 across the walk) fails with errSource.
type lendFactory struct {
	failAt int
	served int
}

var errSource = errors.New("source failed")

func (f *lendFactory) NumSplits() (int, error) { return 2, nil }
func (f *lendFactory) Schema() (RowSchema, error) {
	return RowSchema{Cols: []RowCol{{Name: "c", Type: datum.TypeInt64}}}, nil
}
func (f *lendFactory) Open(split int, m *Metrics, _ BatchSource) (BatchSource, error) {
	return &lendSource{f: f, left: 3}, nil
}

type lendSource struct {
	f    *lendFactory
	left int
}

func (s *lendSource) NextBatch(b *RowBatch) (int, error) {
	if s.left == 0 {
		return 0, nil
	}
	if s.f.served == s.f.failAt {
		return 0, errSource
	}
	s.left--
	b.Cols[0][0] = datum.Int(int64(s.f.served))
	s.f.served++
	return 1, nil
}

// TestScanBatchesReturnsItsBatch walks the lending loop to each of its exits:
// the end of the last split, an error from the callback, an error from the
// source, and a panic in the callback. The batch is back in the pool after
// each, and one batch served the whole walk.
func TestScanBatchesReturnsItsBatch(t *testing.T) {
	e := newCancelTestEngine(t, WithBatchSize(4))
	start := OutstandingBatches()

	var seen []int64
	var lent *RowBatch
	err := e.ScanBatches(&lendFactory{failAt: -1}, 0, 2, -1, &Metrics{}, func(b *RowBatch, n int) error {
		if lent == nil {
			lent = b
		}
		if b != lent || n != 1 || b.Width() != 1 || b.Capacity() != 4 {
			t.Errorf("lent batch %p (%d rows, %dx%d), want the first one, 1 row, 1x4", b, n, b.Width(), b.Capacity())
		}
		if got := OutstandingBatches(); got != start+1 {
			t.Errorf("outstanding during the walk = %d, want %d", got, start+1)
		}
		seen = append(seen, b.Cols[0][0].I)
		return nil
	})
	if err != nil || len(seen) != 6 || seen[5] != 5 {
		t.Fatalf("full walk: err %v, batches %v", err, seen)
	}
	poolBalanced(t, start)

	errStop := errors.New("callback stops")
	calls := 0
	err = e.ScanBatches(&lendFactory{failAt: -1}, 0, 2, -1, &Metrics{}, func(*RowBatch, int) error {
		calls++
		return errStop
	})
	if err != errStop || calls != 1 {
		t.Fatalf("callback error: err %v after %d calls, want errStop after 1", err, calls)
	}
	poolBalanced(t, start)

	calls = 0
	err = e.ScanBatches(&lendFactory{failAt: 4}, 0, 2, -1, &Metrics{}, func(*RowBatch, int) error {
		calls++
		return nil
	})
	if err != errSource || calls != 4 {
		t.Fatalf("source error: err %v after %d calls, want errSource after 4", err, calls)
	}
	poolBalanced(t, start)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("callback panic did not propagate")
			}
		}()
		_ = e.ScanBatches(&lendFactory{failAt: -1}, 1, 2, -1, &Metrics{}, func(*RowBatch, int) error {
			panic("callback panics")
		})
	}()
	poolBalanced(t, start)
}
