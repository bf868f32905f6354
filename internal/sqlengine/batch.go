package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
)

// DefaultBatchSize is the number of rows a scan produces per NextBatch call
// unless WithBatchSize overrides it. 1024 rows keeps a batch of a few
// columns inside the L2 cache while amortizing per-call overhead (cursor
// bookkeeping, metric flushes) over a thousand rows.
const DefaultBatchSize = 1024

// RowBatch is a column-major batch of rows: Cols[c][i] is row i's value of
// column c. Pooled batches never change hands: a scan worker lends its one to
// a callback for the length of a call (ScanBatches), and a BatchPipe keeps the
// ones it queues to itself, so outside this file a pooled *RowBatch is only
// ever a parameter (NewRowBatch builds unpooled ones for whoever wants to own
// one).
type RowBatch struct {
	Cols [][]datum.Datum

	// slab is the flat backing array the columns are sliced from.
	slab []datum.Datum
	size int
	// want, when positive, is how many more rows the batch's reader takes
	// from the source it reads (ScanBatches' limit); Capacity is no larger.
	want int
}

// NewRowBatch builds an unpooled batch of the given width (column count) and
// capacity (rows per column), owned by the caller and the garbage collector.
func NewRowBatch(width, capacity int) *RowBatch {
	b := &RowBatch{}
	b.reshape(width, capacity)
	return b
}

// reshape resizes the batch to width columns of capacity rows, reusing the
// backing slab when it is large enough.
func (b *RowBatch) reshape(width, capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	need := width * capacity
	if cap(b.slab) < need {
		b.slab = make([]datum.Datum, need)
	}
	slab := b.slab[:need]
	if cap(b.Cols) < width {
		b.Cols = make([][]datum.Datum, width)
	}
	b.Cols = b.Cols[:width]
	for c := 0; c < width; c++ {
		b.Cols[c] = slab[c*capacity : (c+1)*capacity : (c+1)*capacity]
	}
	b.size = capacity
	b.want = 0
}

// Capacity returns the most rows the next NextBatch call may fill: the
// batch's size, or fewer when its reader takes no more than that from the
// source (ScanBatches' limit), so a source reads no row it would not use.
func (b *RowBatch) Capacity() int {
	if b.want > 0 && b.want < b.size {
		return b.want
	}
	return b.size
}

// Width returns the column count.
func (b *RowBatch) Width() int { return len(b.Cols) }

// batchPool recycles RowBatch slabs across partitions and queries.
var batchPool = sync.Pool{New: func() any { return &RowBatch{} }}

// batchOutstanding counts batches checked out of the pool and not yet
// returned. Quiescent engines read 0; the chaos suite asserts the count
// returns to baseline after faulted queries so leaks are caught in CI.
var batchOutstanding atomic.Int64

// OutstandingBatches returns how many pooled RowBatches are checked out.
func OutstandingBatches() int64 { return batchOutstanding.Load() }

// getRowBatch returns a pooled batch reshaped to width x capacity. Only a
// scan worker and BatchPipe call it, and each pairs it with putRowBatch
// itself.
func getRowBatch(width, capacity int) *RowBatch {
	b := batchPool.Get().(*RowBatch)
	b.reshape(width, capacity)
	batchOutstanding.Add(1)
	return b
}

// putRowBatch returns a batch to the pool. Its slab is not wiped, so the
// next borrower sees stale datums until it overwrites them.
func putRowBatch(b *RowBatch) {
	batchOutstanding.Add(-1)
	batchPool.Put(b)
}

// BatchSource streams the rows of one split, at most b.Capacity() per call.
// NextBatch fills b.Cols[c][0:n] for every column and returns n; n == 0 with
// a nil error means the source is exhausted. Values written into the batch
// must remain valid after the next NextBatch call only if the caller copied
// them out.
//
// A source that holds something for its reader beyond the rows it returned
// (a shared pass's pipe) may also have a Stop method: ScanBatches calls it
// once, as soon as it reads no further from the source, whether the source
// ran dry, the walk had all the rows it wanted, or it failed.
type BatchSource interface {
	NextBatch(b *RowBatch) (int, error)
}

// stopper is a BatchSource with a Stop method.
type stopper interface{ Stop() }

// StopScan, returned by a ScanBatches callback, ends the walk early and
// cleanly: the callback has every row it needs, and ScanBatches returns nil.
var StopScan = errors.New("sql: scan stopped")

// ScanBatches reads splits [first, end) of factory in order and calls fn once
// per non-empty batch with the rows in b.Cols[c][:n]. The batch is lent: one
// pooled batch serves the whole walk and goes back to the pool when
// ScanBatches returns, by whatever route (fn's error, a source error, a
// panic), so fn must copy out whatever it keeps and must not retain b. Each
// split's Open is handed the source of the split before it, once that split
// ran dry, to re-aim (ScanSourceFactory.Open's prev), so a walk over many
// splits opens its readers once. A non-nil error from fn stops the walk and
// is returned as it is, except StopScan. A limit of zero or more is the most
// rows the walk hands fn: it asks each source for no more than the rows still
// owed (RowBatch.Capacity) and ends, opening no further split, once it has
// handed them all. A limit of -1 reads every row.
func (e *Engine) ScanBatches(factory ScanSourceFactory, first, end, limit int, m *Metrics, fn func(b *RowBatch, n int) error) error {
	var w scanWorker
	defer w.release()
	return e.walk(&w, factory, first, end, limit, m, fn)
}

// scanWorker is the reading state one scan worker owns for one query: the
// batch every split it reads is read into, and the source of its last split,
// which the next split's Open re-aims. An executor worker also keeps its
// evaluator here, and a batch for a join's joined rows, so the splits it
// claims share one of each. A worker serves one factory, and nothing in it
// outlives the query: release returns the batches and the evaluator to their
// pools and drops the source, whose cursors hold views of the files the query
// read.
type scanWorker struct {
	b      *RowBatch
	src    BatchSource // the last split's, when it ran dry; nil otherwise
	ev     *evaluator
	joined *RowBatch
}

// release ends the worker's query.
func (w *scanWorker) release() {
	if w.b != nil {
		putRowBatch(w.b)
	}
	if w.joined != nil {
		putRowBatch(w.joined)
	}
	if w.ev != nil {
		putEvaluator(w.ev)
	}
	*w = scanWorker{}
}

// evaluator returns the worker's evaluator.
func (w *scanWorker) evaluator() *evaluator {
	if w.ev == nil {
		w.ev = evaluatorPool.Get().(*evaluator)
	}
	return w.ev
}

// joinedBatch returns the worker's batch of a join's joined rows.
func (w *scanWorker) joinedBatch(width, capacity int) *RowBatch {
	if w.joined == nil {
		w.joined = getRowBatch(width, capacity)
	}
	return w.joined
}

// walk is ScanBatches through w: the worker's batch, taken at its first walk,
// and its last source, re-aimed at the walk's first split. A source is handed
// on only after its split ran dry; one whose split failed, panicked or was
// stopped early is dropped, never re-aimed.
func (e *Engine) walk(w *scanWorker, factory ScanSourceFactory, first, end, limit int, m *Metrics, fn func(b *RowBatch, n int) error) error {
	if w.b == nil {
		schema, err := factory.Schema()
		if err != nil {
			return err
		}
		w.b = getRowBatch(len(schema.Cols), e.batchSize)
	}
	for split := first; split < end && limit != 0; split++ {
		prev := w.src
		w.src = nil
		src, err := factory.Open(split, m, prev)
		if err != nil {
			return err
		}
		dry, err := readSource(src, w.b, &limit, fn)
		if err != nil {
			if errors.Is(err, StopScan) {
				return nil
			}
			return err
		}
		if dry {
			w.src = src
		}
	}
	return nil
}

// readSource hands fn src's batches until it runs dry or *limit rows have
// been handed, taking what it hands off *limit, and stops src when it is
// done with it. dry reports that src ran dry.
func readSource(src BatchSource, b *RowBatch, limit *int, fn func(b *RowBatch, n int) error) (dry bool, err error) {
	if s, ok := src.(stopper); ok {
		defer s.Stop()
	}
	for *limit != 0 {
		b.want = *limit
		n, err := src.NextBatch(b)
		if err != nil || n == 0 {
			return err == nil, err
		}
		if *limit > 0 {
			*limit = max(*limit-n, 0)
		}
		if err := fn(b, n); err != nil {
			return false, err
		}
	}
	return false, nil
}

// BatchPipe is a bounded queue of row batches between one producer goroutine
// (Send, then Close) and one consumer (Recv, then Abandon). Rows cross it by
// copy on both sides: Send copies the sender's vectors into a pooled batch
// the pipe keeps, Recv copies that batch into the receiver's and recycles it.
// Every batch the pipe took from the pool is back once the producer has
// called Close, the consumer has called Abandon or drained the pipe to its
// end, and no call is in flight.
type BatchPipe struct {
	queue chan pipedBatch
	// gone is closed by Abandon: the consumer reads no further.
	gone    chan struct{}
	abandon sync.Once
}

// pipedBatch is a queued batch and its row count.
type pipedBatch struct {
	b *RowBatch
	n int
}

// NewBatchPipe builds a pipe that lets the producer run at most depth
// batches ahead of the consumer.
func NewBatchPipe(depth int) *BatchPipe {
	return &BatchPipe{queue: make(chan pipedBatch, depth), gone: make(chan struct{})}
}

// Send queues a copy of cols[c][:n], blocking while the pipe is full. It
// reports false, having queued nothing, once the consumer has abandoned the
// pipe. Producer side only.
func (p *BatchPipe) Send(cols [][]datum.Datum, n int) bool {
	if p.Abandoned() {
		return false
	}
	b := getRowBatch(len(cols), n)
	for c := range cols {
		copy(b.Cols[c][:n], cols[c][:n])
	}
	select {
	case p.queue <- pipedBatch{b: b, n: n}:
		// Abandon may have drained the queue just before this landed; Close
		// sweeps what it left.
		return true
	case <-p.gone:
		putRowBatch(b)
		return false
	}
}

// Close ends the stream: Recv returns 0 once the queued batches are read.
// The producer calls it exactly once, after its last Send.
func (p *BatchPipe) Close() {
	if p.Abandoned() {
		p.drain()
	}
	// A consumer that abandons from here on drains a closed channel, which
	// still yields what is queued.
	close(p.queue)
}

// Recv copies the next batch into dst and returns its row count; 0 with a
// nil error means the producer closed the pipe and everything sent was
// read. It fails when ctx is done first, and when the batch does not fit
// dst (the batch is dropped). A dst whose reader takes fewer rows than the
// batch holds (RowBatch.Capacity) gets the first of them, and the rest are
// dropped: that reader takes no more. Consumer side only.
func (p *BatchPipe) Recv(ctx context.Context, dst *RowBatch) (int, error) {
	select {
	case pb, ok := <-p.queue:
		if !ok {
			return 0, nil
		}
		defer putRowBatch(pb.b)
		if pb.n > dst.size || pb.b.Width() != dst.Width() {
			return 0, fmt.Errorf("sql: piped batch shape mismatch (%d rows x %d cols into %d x %d)",
				pb.n, pb.b.Width(), dst.size, dst.Width())
		}
		n := min(pb.n, dst.Capacity())
		for c := range pb.b.Cols {
			copy(dst.Cols[c][:n], pb.b.Cols[c][:n])
		}
		return n, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Abandon tells the producer this consumer reads no further — Send stops
// queueing — and recycles what is queued. Idempotent; the consumer calls it
// when it is done with the pipe, however that came about.
func (p *BatchPipe) Abandon() {
	p.abandon.Do(func() { close(p.gone) })
	p.drain()
}

// Abandoned reports whether Abandon has been called.
func (p *BatchPipe) Abandoned() bool {
	select {
	case <-p.gone:
		return true
	default:
		return false
	}
}

// drain recycles every batch queued right now. Both sides may run it at
// once: each queued batch is received by exactly one of them.
func (p *BatchPipe) drain() {
	for {
		select {
		case pb, ok := <-p.queue:
			if !ok {
				return
			}
			putRowBatch(pb.b)
		default:
			return
		}
	}
}
