// Package ctxflow is the golden fixture for the ctxflow analyzer: fresh
// context roots must not sever a caller-supplied or query-scoped context.
package ctxflow

import "context"

// WithParam already receives a ctx; minting a fresh root severs the
// caller's cancellation.
func WithParam(ctx context.Context) {
	_ = ctx
	c := context.Background() // want "already receives a context.Context"
	_ = c
}

func RunCtx(ctx context.Context, q string) error {
	_ = ctx
	_ = q
	return nil
}

// Run forwards to its own Ctx sibling with a fresh root: a wrapper is no
// exception, it drops the chain like any other caller.
func Run(q string) error {
	return RunCtx(context.Background(), q) // want "drops the context chain"
}

func process(ctx context.Context, q string) {
	_ = ctx
	_ = q
}

// Drop hands a fresh root to a ctx-accepting callee: the caller's context
// chain is dropped.
func Drop(q string) {
	process(context.Background(), q) // want "drops the context chain"
}

// backend exercises the interface edge: QueryCtx reaches
// memBackend.Refresh only through interface dispatch.
type backend interface {
	Refresh() error
}

type memBackend struct{}

func (m *memBackend) Refresh() error {
	ctx := context.Background() // want "reachable from QueryCtx"
	_ = ctx
	return nil
}

type Server struct {
	b backend
}

// QueryCtx is a cancellable entry point; everything reachable from it must
// stay on the caller's context.
func (s *Server) QueryCtx(ctx context.Context) error {
	_ = ctx
	return s.b.Refresh()
}
