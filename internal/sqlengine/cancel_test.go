package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/warehouse"
	"time"
)

func newCancelTestEngine(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock))
	wh.CreateDatabase("db")
	schema := orc.Schema{Columns: []orc.Column{{Name: "id", Type: datum.TypeInt64}}}
	if err := wh.CreateTable("db", "t", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([][]datum.Datum, 8)
	for i := range rows {
		rows[i] = []datum.Datum{datum.Int(int64(i))}
	}
	if _, err := wh.AppendRows("db", "t", rows); err != nil {
		t.Fatal(err)
	}
	return NewEngine(wh, append([]EngineOption{WithDefaultDB("db")}, opts...)...)
}

// cancellingFactory yields a single split whose source cancels the query
// context during its first NextBatch call and then keeps producing full
// batches. If the executor honours cancellation at batch boundaries, it stops
// after the batch in flight; if not, the source's hard cap fails the test
// instead of hanging it.
type cancellingFactory struct {
	schema RowSchema
	cancel context.CancelFunc
	calls  int
}

func (f *cancellingFactory) NumSplits() (int, error)    { return 1, nil }
func (f *cancellingFactory) Schema() (RowSchema, error) { return f.schema, nil }
func (f *cancellingFactory) Open(split int, m *Metrics) (BatchSource, error) {
	return (*cancellingSource)(f), nil
}

type cancellingSource cancellingFactory

func (s *cancellingSource) NextBatch(b *RowBatch) (int, error) {
	s.calls++
	if s.calls == 1 {
		s.cancel()
	}
	if s.calls > 1000 {
		return 0, fmt.Errorf("source drained %d batches after cancellation", s.calls)
	}
	for i := range b.Cols[0] {
		b.Cols[0][i] = datum.Int(int64(s.calls))
	}
	return b.Capacity(), nil
}

// TestChaosCancelWithinOneBatch verifies the acceptance criterion that a
// cancelled context stops execution within one batch boundary: the source
// that triggered the cancel while filling a batch is not asked for another,
// and the query returns context.Canceled.
func TestChaosCancelWithinOneBatch(t *testing.T) {
	const batchSize = 4
	e := newCancelTestEngine(t, WithBatchSize(batchSize), WithParallelism(1))

	plan, _, err := e.PlanOnly(`SELECT id FROM db.t`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &cancellingFactory{schema: plan.Scan.Schema(), cancel: cancel}
	plan.Scan.Factory = f

	before := OutstandingBatches()
	_, _, err = e.ExecuteCtx(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The cancel fired inside batch 1; the executor finishes that batch but
	// must not start another.
	if f.calls != 1 {
		t.Fatalf("source was asked for %d batches, want 1: cancellation not honoured at the batch boundary", f.calls)
	}
	if got := OutstandingBatches(); got != before {
		t.Fatalf("pooled RowBatch leak: outstanding %d before, %d after", before, got)
	}
}

// TestChaosPreCancelledContext verifies a context cancelled before execution
// never opens a split.
func TestChaosPreCancelledContext(t *testing.T) {
	e := newCancelTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.QueryCtx(ctx, `SELECT id FROM db.t`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestChaosQueryTimeout verifies a context deadline bounds a query: it
// surfaces as context.DeadlineExceeded at a batch boundary.
func TestChaosQueryTimeout(t *testing.T) {
	e := newCancelTestEngine(t, WithParallelism(1))
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, _, err := e.QueryCtx(ctx, `SELECT id FROM db.t`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// panickingFactory panics inside a split worker, exercising the per-split
// recover that converts panics into attributed query errors.
type panickingFactory struct{ schema RowSchema }

func (f *panickingFactory) NumSplits() (int, error)    { return 1, nil }
func (f *panickingFactory) Schema() (RowSchema, error) { return f.schema, nil }
func (f *panickingFactory) Open(split int, m *Metrics) (BatchSource, error) {
	panic("synthetic split failure")
}

// TestChaosSplitPanicRecovered verifies a worker panic surfaces as an error
// naming the split — not a crashed process — increments the panic counter,
// and leaks no pooled batches.
func TestChaosSplitPanicRecovered(t *testing.T) {
	e := newCancelTestEngine(t, WithParallelism(2))
	r := obs.NewRegistry()
	e.SetObsRegistry(r)

	plan, _, err := e.PlanOnly(`SELECT id FROM db.t`)
	if err != nil {
		t.Fatal(err)
	}
	plan.Scan.Factory = &panickingFactory{schema: plan.Scan.Schema()}

	before := OutstandingBatches()
	_, _, err = e.ExecuteCtx(context.Background(), plan)
	if err == nil {
		t.Fatal("want panic converted to error, got nil")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "split 0") {
		t.Fatalf("panic error lacks split attribution: %v", err)
	}
	if !strings.Contains(err.Error(), "db.t") {
		t.Fatalf("panic error lacks table attribution: %v", err)
	}
	if got := r.Counter("engine_split_panics_total").Value(); got != 1 {
		t.Fatalf("engine_split_panics_total = %d, want 1", got)
	}
	if got := OutstandingBatches(); got != before {
		t.Fatalf("pooled RowBatch leak after panic: outstanding %d before, %d after", before, got)
	}
}
