package sqlengine

import "context"

// Shared-scan integration point. The engine itself knows nothing about how
// concurrent queries get batched into one pass — that lives in
// internal/scanshare — it only offers a pre-execution hook where an attached
// ScanSharer may rewrite the plan's scan to consume a shared producer.

// SharedScanHandle is a query's membership in a shared scan. The engine
// calls Release exactly once when the query finishes (success, error, or
// cancellation): the participant detaches from the producer and returns any
// still-buffered pooled batches, so one query's exit never strands its
// siblings or leaks RowBatches.
type SharedScanHandle interface {
	Release()
}

// ScanSharer batches compatible concurrent scans. Attach is called after
// planning (and any PlanModifier) and before execution; when the scheduler
// expects compatible queries it may block briefly (at most the admission
// window) while they coalesce, and otherwise returns at once. A (nil, nil)
// return means "run unshared" — the plan must then be untouched. A non-nil
// handle means the plan's scan now reads from the shared producer and the
// engine must Release the handle when the query completes.
type ScanSharer interface {
	Attach(ctx context.Context, e *Engine, plan *PhysicalPlan) (SharedScanHandle, error)
}

// SetScanShare installs (or, with nil, removes) the engine's shared-scan
// scheduler. Call before serving queries.
func (e *Engine) SetScanShare(s ScanSharer) { e.scanShare = s }

// sessionKey keys the client session in a query's context.
type sessionKey struct{}

// WithSession returns ctx naming the client session a query comes from, so
// that a ScanSharer can tell one client's repeat from a second client's
// arrival. An empty id names none and returns ctx.
func WithSession(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, sessionKey{}, id)
}

// SessionOf returns the session ctx names, "" when it names none.
func SessionOf(ctx context.Context) string {
	id, _ := ctx.Value(sessionKey{}).(string)
	return id
}
