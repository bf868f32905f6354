package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// DebugServer is the live diagnostics endpoint: a stdlib net/http server
// exposing the metrics registry, health, and pprof, plus any extra routes
// the caller mounts (the flight recorder's /debug/queries, the cycle
// report's /debug/cycle). It is designed to run beside production traffic:
// every handler reads atomic snapshots, never blocking the query hot path.
//
// Routes registered by NewDebugServer:
//
//	/metrics          Prometheus text exposition (bucket lines included)
//	/metrics.json     the same snapshot as one JSON document
//	/healthz          liveness: 200 "ok" (or 503 + error text when a health
//	                  check is installed and failing) — "is the process up"
//	/readyz           readiness: 200 "ok" (or 503 + error text when a
//	                  readiness check is installed and failing) — "should
//	                  this process receive traffic". A draining server flips
//	                  /readyz false while /healthz stays true, so load
//	                  balancers stop routing without the orchestrator
//	                  killing the process mid-drain.
//	/debug/pprof/...  the standard pprof index, profile, heap, trace, ...
type DebugServer struct {
	mux *http.ServeMux

	// DrainTimeout bounds Serve's graceful shutdown once its ctx is
	// cancelled; 0 means the 5s default. Set before calling Serve.
	DrainTimeout time.Duration

	mu     sync.Mutex
	srv    *http.Server
	ln     net.Listener
	health func() error
	ready  func() error
}

// NewDebugServer builds a debug server over a metrics registry.
func NewDebugServer(reg *Registry) *DebugServer {
	d := &DebugServer{mux: http.NewServeMux()}
	d.mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		if err := reg.WriteProm(w); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	})
	d.mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	d.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		d.mu.Lock()
		check := d.health
		d.mu.Unlock()
		serveCheck(w, check)
	})
	d.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		d.mu.Lock()
		check := d.ready
		d.mu.Unlock()
		serveCheck(w, check)
	})
	d.mux.HandleFunc("/debug/pprof/", pprof.Index)
	d.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	d.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	d.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	d.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return d
}

// Handle mounts an extra route (e.g. /debug/queries, /debug/cycle).
func (d *DebugServer) Handle(pattern string, h http.Handler) {
	d.mux.Handle(pattern, h)
}

// HandleFunc mounts an extra route from a plain function.
func (d *DebugServer) HandleFunc(pattern string, f func(http.ResponseWriter, *http.Request)) {
	d.mux.HandleFunc(pattern, f)
}

// serveCheck renders one health/readiness probe: 200 "ok" when the check is
// absent or passing, 503 + the error text when it fails.
func serveCheck(w http.ResponseWriter, check func() error) {
	if check != nil {
		if err := check(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

// SetHealth installs the /healthz liveness check; nil restores
// unconditional 200.
func (d *DebugServer) SetHealth(f func() error) {
	d.mu.Lock()
	d.health = f
	d.mu.Unlock()
}

// SetReady installs the /readyz readiness check; nil restores unconditional
// 200. Servers flip this false during drain (and before listeners accept)
// so traffic routes away while in-flight work finishes.
func (d *DebugServer) SetReady(f func() error) {
	d.mu.Lock()
	d.ready = f
	d.mu.Unlock()
}

// Handler returns the underlying mux, for httptest and for embedding the
// debug routes into a larger server.
func (d *DebugServer) Handler() http.Handler { return d.mux }

// Start binds addr and serves in a background goroutine, returning the
// bound address (useful with ":0"). Pair with Shutdown.
func (d *DebugServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: d.mux}
	d.mu.Lock()
	d.srv, d.ln = srv, ln
	d.mu.Unlock()
	// srv.Serve returns when Shutdown closes the listener: the http.Server owns this goroutine.
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (d *DebugServer) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Shutdown gracefully drains the server: in-flight requests finish, new
// connections are refused. Safe to call without Start (no-op).
func (d *DebugServer) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	srv := d.srv
	d.srv, d.ln = nil, nil
	d.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// Serve binds addr and serves until ctx is cancelled, then shuts down
// gracefully, bounded by DrainTimeout (default 5s). The long-running CLI
// shape: `go d.Serve(...)` with the process context. The drain deadline
// derives from the caller's ctx values without inheriting its
// cancellation — ctx is already done by then, and an immediately-dead
// drain context would kill in-flight requests instead of draining them.
func (d *DebugServer) Serve(ctx context.Context, addr string) error {
	if _, err := d.Start(addr); err != nil {
		return err
	}
	<-ctx.Done()
	drain := d.DrainTimeout
	if drain <= 0 {
		drain = 5 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	return d.Shutdown(sctx)
}
