// Package serve is the long-lived concurrent SQL server: an HTTP/JSON
// frontend over the Maxson query path whose core is a robustness pipeline —
// admission control with a bounded worker pool and a bounded wait queue
// (overflow sheds with 429 + Retry-After; a queued request can never wait
// past its own deadline), per-query context deadlines, per-session limits
// with idle reaping, panic-isolated handlers, and graceful drain (stop
// admitting → readiness false → drain in-flight up to a deadline → flush
// state). A scheduler goroutine runs online cache-maintenance cycles
// concurrently with live traffic; the generational build-then-swap commit in
// internal/core is what makes that safe.
//
// The package depends only on the engine's result types and internal/obs,
// so the query backend is an interface: internal/core's Maxson and the root
// maxson.System both satisfy it.
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sqlengine"
)

// Backend executes one SQL query under a context — the only query-path
// capability the server needs. *core.Maxson and *maxson.System satisfy it.
type Backend interface {
	QueryCtx(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error)
}

// Defaults for Config fields left zero.
const (
	DefaultWorkers            = 4
	DefaultQueueDepthPerSlot  = 4
	DefaultQueryTimeout       = 30 * time.Second
	DefaultRetryAfter         = 1 * time.Second
	DefaultMaxSessions        = 256
	DefaultSessionMaxInflight = 16
	DefaultSessionIdle        = 5 * time.Minute
	DefaultDrainTimeout       = 10 * time.Second
)

// Config configures a Server.
type Config struct {
	// Workers bounds concurrently executing queries (default DefaultWorkers).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; an arrival
	// beyond it is shed with 429 (default Workers*DefaultQueueDepthPerSlot).
	QueueDepth int
	// QueryTimeout caps every query's execution + queue wait. A request's
	// own timeout_ms can only shorten it (default DefaultQueryTimeout).
	QueryTimeout time.Duration
	// RetryAfter is the hint on 429 responses (default DefaultRetryAfter).
	RetryAfter time.Duration
	// MaxSessions bounds distinct live sessions (default DefaultMaxSessions).
	MaxSessions int
	// SessionMaxInflight bounds one session's concurrent queries (default
	// DefaultSessionMaxInflight).
	SessionMaxInflight int
	// SessionIdle is the reaping horizon: a session idle this long with no
	// in-flight query is deleted (default DefaultSessionIdle).
	SessionIdle time.Duration
	// DrainTimeout bounds Serve's graceful drain once its ctx is cancelled
	// (default DefaultDrainTimeout).
	DrainTimeout time.Duration

	// Cycle, when set with CycleEvery > 0, runs one online cache-maintenance
	// cycle (advance clock to midnight + RunMidnightCycleCtx) on a scheduler
	// goroutine, concurrently with live traffic.
	Cycle      func(ctx context.Context) error
	CycleEvery time.Duration

	// OnDrain runs after in-flight work has drained (SaveState flush).
	OnDrain func() error

	// Obs receives serve_* metrics (nil creates a private registry).
	Obs *obs.Registry
	// Log receives structured server logs (nil discards).
	Log *slog.Logger
	// Debug, when set, has its routes (/metrics, /healthz, /readyz,
	// /debug/...) mounted on the server's mux and its readiness wired to the
	// server's admission state.
	Debug *obs.DebugServer
}

// Server is the long-lived SQL server.
type Server struct {
	cfg     Config
	backend Backend
	log     *slog.Logger
	mux     *http.ServeMux

	// slots is the worker pool: one token per concurrently executing query.
	slots    chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64

	started  atomic.Bool
	draining atomic.Bool
	// drainCh closes when drain starts, waking every queued waiter so it
	// sheds instead of waiting out a doomed admission.
	drainCh   chan struct{}
	drainOnce sync.Once

	mu       sync.Mutex
	srv      *http.Server
	ln       net.Listener
	sessions map[string]*session

	requests   *obs.Counter
	shed       *obs.Counter
	errors     *obs.Counter
	panics     *obs.Counter
	cycles     *obs.Counter
	cycleFails *obs.Counter
	wall       *obs.Histogram
	queueWait  *obs.Histogram
}

// New builds a server over a query backend. Mount order matters only for
// the catch-all debug handler, which serves every path the API does not.
func New(backend Backend, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = cfg.Workers * DefaultQueueDepthPerSlot
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = DefaultQueryTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.SessionMaxInflight <= 0 {
		cfg.SessionMaxInflight = DefaultSessionMaxInflight
	}
	if cfg.SessionIdle <= 0 {
		cfg.SessionIdle = DefaultSessionIdle
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(discardHandler{})
	}
	s := &Server{
		cfg:      cfg,
		backend:  backend,
		log:      cfg.Log,
		mux:      http.NewServeMux(),
		slots:    make(chan struct{}, cfg.Workers),
		drainCh:  make(chan struct{}),
		sessions: make(map[string]*session),
	}
	reg := cfg.Obs
	s.requests = reg.Counter("serve_requests_total")
	s.shed = reg.Counter("serve_shed_total")
	s.errors = reg.Counter("serve_request_errors_total")
	s.panics = reg.Counter("serve_handler_panics_total")
	s.cycles = reg.Counter("serve_cycles_total")
	s.cycleFails = reg.Counter("serve_cycle_failures_total")
	s.wall = reg.Histogram("serve_request_wall_ns")
	s.queueWait = reg.Histogram("serve_queue_wait_ns")
	reg.GaugeFunc("serve_inflight_count", func() int64 { return s.inflight.Load() })
	reg.GaugeFunc("serve_queue_depth_count", func() int64 { return s.queued.Load() })
	reg.GaugeFunc("serve_worker_count", func() int64 { return int64(cfg.Workers) })
	reg.GaugeFunc("serve_session_count", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.sessions))
	})

	s.mux.HandleFunc("/v1/query", s.protect(s.handleQuery))
	s.mux.HandleFunc("/v1/sessions", s.protect(s.handleSessions))
	if cfg.Debug != nil {
		cfg.Debug.SetReady(s.readyErr)
		s.mux.Handle("/", cfg.Debug.Handler())
	}
	return s
}

// Ready reports whether the server admits work: started and not draining.
// The /readyz endpoint (via the mounted DebugServer) serves it.
func (s *Server) Ready() bool {
	return s.started.Load() && !s.draining.Load()
}

// readyErr adapts Ready to the DebugServer's readiness-check signature.
func (s *Server) readyErr() error {
	if !s.started.Load() {
		return errNotStarted
	}
	if s.draining.Load() {
		return errDraining
	}
	return nil
}

// Handler exposes the mux for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Config returns the resolved (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Inflight returns the number of queries executing right now.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Queued returns the number of requests waiting for a worker slot.
func (s *Server) Queued() int64 { return s.queued.Load() }

// Start binds addr and serves in a background goroutine, returning the
// bound address (useful with ":0"). Readiness flips true only after the
// listener accepts. Pair with Shutdown; Serve wraps the full lifecycle.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.srv, s.ln = srv, ln
	s.mu.Unlock()
	// srv.Serve returns when Shutdown closes the listener: the http.Server owns this goroutine.
	go func() { _ = srv.Serve(ln) }()
	s.started.Store(true)
	s.log.Info("serving", "addr", ln.Addr().String(),
		"workers", s.cfg.Workers, "queue_depth", s.cfg.QueueDepth)
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server gracefully: readiness flips false, queued
// requests are shed with 429, in-flight queries run to completion (bounded
// by ctx), then OnDrain flushes state. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	var err error
	if srv != nil {
		// http.Server.Shutdown stops the listener and waits for in-flight
		// requests — exactly the drain contract — up to ctx's deadline.
		err = srv.Shutdown(ctx)
	}
	if s.cfg.OnDrain != nil {
		if derr := s.cfg.OnDrain(); derr != nil {
			s.log.Error("drain flush failed", "err", derr)
			if err == nil {
				err = derr
			}
		}
	}
	s.log.Info("drained", "err", err)
	return err
}

// beginDrain flips the server into draining mode exactly once: stop
// admitting, flip readiness, wake queued waiters so they shed.
func (s *Server) beginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		s.log.Info("drain started", "inflight", s.inflight.Load(), "queued", s.queued.Load())
	})
}

// Serve binds addr and serves until ctx is cancelled, then drains within
// DrainTimeout. It owns the background loops: the session reaper and, when
// configured, the online cycle scheduler. The long-running CLI shape.
func (s *Server) Serve(ctx context.Context, addr string) error {
	if _, err := s.Start(addr); err != nil {
		return err
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go s.reapLoop(lctx, &wg)
	if s.cfg.Cycle != nil && s.cfg.CycleEvery > 0 {
		wg.Add(1)
		go s.cycleLoop(lctx, &wg)
	}
	<-ctx.Done()
	// The drain context derives from ctx's values without its cancellation:
	// ctx is already done, and an immediately-dead drain would kill
	// in-flight queries instead of draining them.
	sctx, scancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DrainTimeout)
	defer scancel()
	err := s.Shutdown(sctx)
	cancel()
	wg.Wait()
	return err
}

// admit acquires a worker slot for one query, queueing up to QueueDepth
// waiters. The returned release func MUST be called when the query
// finishes. Shedding paths return a non-nil *admissionError.
func (s *Server) admit(ctx context.Context) (func(), *admissionError) {
	if s.draining.Load() {
		return nil, errDrainingAdmission
	}
	select {
	case s.slots <- struct{}{}:
		return s.release, nil
	default:
	}
	// Pool full: join the bounded wait queue. The increment-then-check
	// keeps the bound exact — every loser backs its increment out.
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return nil, errQueueFull
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return s.release, nil
	case <-ctx.Done():
		// Queue-time deadline: the request's own deadline fired while it
		// waited, so it sheds rather than starting doomed work.
		return nil, errQueueDeadline
	case <-s.drainCh:
		return nil, errDrainingAdmission
	}
}

func (s *Server) release() { <-s.slots }

// cycleLoop runs the online cache-maintenance cycle every CycleEvery,
// concurrently with live traffic, until ctx is done. A failed cycle is
// counted and logged but never fatal: the previous cache generation keeps
// serving (build-then-swap), so the server just tries again next tick.
func (s *Server) cycleLoop(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(s.cfg.CycleEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		start := time.Now()
		err := s.cfg.Cycle(ctx)
		s.cycles.Inc()
		if err != nil {
			s.cycleFails.Inc()
			s.log.Warn("online cycle failed; previous generation keeps serving",
				"err", err, "wall", time.Since(start))
			continue
		}
		s.log.Info("online cycle done", "wall", time.Since(start))
	}
}

// protect isolates one handler: a panic is converted into a 500 and a
// serve_handler_panics_total increment instead of killing the server.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				s.log.Error("handler panic", "path", r.URL.Path, "panic", p,
					"stack", string(debug.Stack()))
				writeJSONError(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		h(w, r)
	}
}

// discardHandler is a no-op slog handler (slog.DiscardHandler is go1.24+).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
