// Package ctxflow is the golden fixture for the ctxflow analyzer: library
// code never mints a context root, whatever its signature.
package ctxflow

import "context"

// --- findings ---

// WithParam already receives a ctx; a fresh root severs the caller's
// cancellation.
func WithParam(ctx context.Context) {
	_ = ctx
	c := context.Background() // want "context.Background() outside package main"
	_ = c
}

func process(ctx context.Context, q string) {
	_ = ctx
	_ = q
}

// Drop has no ctx to pass on, so it must take one: a context-less wrapper
// is no exception.
func Drop(q string) {
	process(context.TODO(), q) // want "context.TODO() outside package main"
}

// A root minted in a literal belongs to the library function around it.
func InLiteral() func() context.Context {
	return func() context.Context {
		return context.Background() // want "context.Background() outside package main"
	}
}

// --- clean ---

func Threads(ctx context.Context, q string) {
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	process(child, q)
}
