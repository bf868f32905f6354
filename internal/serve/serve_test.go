package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/sqlengine"
)

// stubBackend runs a caller-provided function per query; the default echoes
// the SQL back as one row. Tests that need to hold a worker slot open block
// the function on a channel.
type stubBackend struct {
	fn func(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error)
}

func (b *stubBackend) QueryCtx(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error) {
	if b.fn != nil {
		return b.fn(ctx, sql)
	}
	return &sqlengine.ResultSet{Columns: []string{"sql"}, Rows: [][]datum.Datum{{datum.Str(sql)}}}, nil, nil
}

// postQuery fires one /v1/query request and returns status + decoded body.
func postQuery(t *testing.T, h http.Handler, body string) (int, map[string]any, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return w.Code, decoded, w.Header()
}

func TestQueryEndpoint(t *testing.T) {
	var session string
	s := New(&stubBackend{fn: func(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error) {
		session = sqlengine.SessionOf(ctx)
		return (&stubBackend{}).QueryCtx(ctx, sql)
	}}, Config{})
	code, body, _ := postQuery(t, s.Handler(), `{"sql":"SELECT 1","session":"c7"}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	if session != "c7" {
		t.Fatalf("the backend's context names session %q, want c7: the shared-scan scheduler cannot tell clients apart", session)
	}
	rows := body["rows"].([]any)
	if len(rows) != 1 || rows[0].([]any)[0] != "SELECT 1" {
		t.Fatalf("rows = %v", rows)
	}
	if body["row_count"].(float64) != 1 {
		t.Fatalf("row_count = %v", body["row_count"])
	}
}

func TestBadRequests(t *testing.T) {
	s := New(&stubBackend{}, Config{})
	for _, tc := range []struct {
		method, body string
		want         int
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed},
		{http.MethodPost, "{not json", http.StatusBadRequest},
		{http.MethodPost, `{"sql":""}`, http.StatusBadRequest},
	} {
		req := httptest.NewRequest(tc.method, "/v1/query", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != tc.want {
			t.Errorf("%s %q: status = %d, want %d", tc.method, tc.body, w.Code, tc.want)
		}
	}
}

// blockingServer builds a server whose backend parks every query until
// release is closed, with a started channel signalling each parked query.
func blockingServer(cfg Config) (*Server, chan struct{}, chan struct{}) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	backend := &stubBackend{fn: func(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		return &sqlengine.ResultSet{Columns: []string{"ok"}, Rows: [][]datum.Datum{{datum.Str("1")}}}, nil, nil
	}}
	return New(backend, cfg), started, release
}

// TestAdmissionShedsOnQueueOverflow fills the pool and the queue, then
// verifies the next arrival sheds with 429 + Retry-After while the admitted
// requests all complete once the backend unblocks.
func TestAdmissionShedsOnQueueOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	s, started, release := blockingServer(Config{Workers: 1, QueueDepth: 1, Obs: reg})

	type result struct {
		code int
		hdr  http.Header
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"sql":"q"}`))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			results <- result{w.Code, w.Header()}
		}()
	}
	// One query must be executing and one queued before the overflow probe.
	<-started
	waitFor(t, func() bool { return s.Queued() == 1 })

	code, body, hdr := postQuery(t, s.Handler(), `{"sql":"overflow"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, body %v", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("admitted request %d finished %d", i, r.code)
		}
	}
	if got := reg.Snapshot().Counters["serve_shed_total"]; got != 1 {
		t.Fatalf("serve_shed_total = %d, want 1", got)
	}
}

// TestQueuedRequestShedsAtOwnDeadline parks one query and verifies a queued
// request with a short timeout_ms sheds with 504 instead of waiting past
// its own deadline.
func TestQueuedRequestShedsAtOwnDeadline(t *testing.T) {
	s, started, release := blockingServer(Config{Workers: 1, QueueDepth: 4})
	defer close(release)

	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"sql":"hold"}`))
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-started

	t0 := time.Now()
	code, body, _ := postQuery(t, s.Handler(), `{"sql":"queued","timeout_ms":50}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline status = %d, body %v", code, body)
	}
	if wait := time.Since(t0); wait > 5*time.Second {
		t.Fatalf("queued request waited %v past its 50ms deadline", wait)
	}
}

// TestPanicIsolation verifies a panicking query turns into a 500 and a
// metric, and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	backend := &stubBackend{fn: func(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error) {
		if sql == "boom" {
			panic("injected handler panic")
		}
		return &sqlengine.ResultSet{Columns: []string{"ok"}, Rows: nil}, nil, nil
	}}
	s := New(backend, Config{Obs: reg})

	code, body, _ := postQuery(t, s.Handler(), `{"sql":"boom"}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, body %v", code, body)
	}
	if got := reg.Snapshot().Counters["serve_handler_panics_total"]; got != 1 {
		t.Fatalf("serve_handler_panics_total = %d, want 1", got)
	}
	// The worker slot and inflight gauge must have been released.
	if code, _, _ := postQuery(t, s.Handler(), `{"sql":"fine"}`); code != http.StatusOK {
		t.Fatalf("server dead after panic: %d", code)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight = %d after panic", s.Inflight())
	}
}

// TestSessionLimits covers the per-session in-flight bound and MaxSessions.
func TestSessionLimits(t *testing.T) {
	s, started, release := blockingServer(Config{Workers: 4, SessionMaxInflight: 1, MaxSessions: 2})

	codes := make(chan int, 2)
	hold := func(session string) {
		go func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/query",
				strings.NewReader(`{"sql":"hold","session":"`+session+`"}`))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			codes <- w.Code
		}()
		<-started
	}
	hold("a")
	if code, _, _ := postQuery(t, s.Handler(), `{"sql":"q","session":"a"}`); code != http.StatusTooManyRequests {
		t.Fatalf("second in-flight query on session a = %d, want 429", code)
	}
	// Session b is the second of MaxSessions=2: admitted.
	hold("b")
	// Session c would be the third: rejected.
	if code, _, _ := postQuery(t, s.Handler(), `{"sql":"q","session":"c"}`); code != http.StatusTooManyRequests {
		t.Fatalf("session past MaxSessions = %d, want 429", code)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("held query %d finished %d", i, code)
		}
	}
}

func TestSessionReaping(t *testing.T) {
	s := New(&stubBackend{}, Config{SessionIdle: time.Minute})
	if code, _, _ := postQuery(t, s.Handler(), `{"sql":"q","session":"ephemeral"}`); code != http.StatusOK {
		t.Fatal("seed query failed")
	}
	if n := s.reapIdleSessions(time.Now()); n != 0 {
		t.Fatalf("reaped %d fresh sessions", n)
	}
	if n := s.reapIdleSessions(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("reaped %d idle sessions, want 1", n)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var page sessionsPage
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != 0 {
		t.Fatalf("sessions after reap = %d, want 0", page.Count)
	}
}

// seriesCount is how many series the registry holds.
func seriesCount(reg *obs.Registry) int {
	snap := reg.Snapshot()
	return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
}

// TestSessionRotationLeavesRegistryBounded rotates client-chosen session ids
// through create and reap: the registry must hold the same series afterwards,
// because a session id is not a label of anything.
func TestSessionRotationLeavesRegistryBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(&stubBackend{}, Config{Obs: reg, SessionIdle: time.Minute})
	if code, _, _ := postQuery(t, s.Handler(), `{"sql":"q"}`); code != http.StatusOK {
		t.Fatal("seed query failed")
	}
	before := seriesCount(reg)
	for i := 0; i < 1000; i++ {
		if code, _, _ := postQuery(t, s.Handler(), fmt.Sprintf(`{"sql":"q","session":"rotating-%d"}`, i)); code != http.StatusOK {
			t.Fatalf("query of session %d = %d", i, code)
		}
		if i%100 == 99 { // stay under MaxSessions
			s.reapIdleSessions(time.Now().Add(2 * time.Minute))
		}
	}
	if after := seriesCount(reg); after != before {
		t.Fatalf("1000 rotated sessions grew the registry from %d to %d series", before, after)
	}
}

// TestSessionIDCannotForgeMetrics sends a session id built to close a label
// set and start a sample line of its own. /metrics must not carry it, and
// /v1/sessions, where ids are reported, must carry it JSON-escaped.
func TestSessionIDCannotForgeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(&stubBackend{}, Config{Obs: reg, Debug: obs.NewDebugServer(reg)})
	const id = "x\"} 1\nforged_total 9"
	body, err := json.Marshal(map[string]string{"sql": "q", "session": id})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := postQuery(t, s.Handler(), string(body)); code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}
	get := func(path string) string {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, w.Code)
		}
		return w.Body.String()
	}
	if metrics := get("/metrics"); strings.Contains(metrics, "forged_total") || !strings.Contains(metrics, "serve_session_count 1\n") {
		t.Fatalf("/metrics carries the session id, or lost serve_session_count:\n%s", metrics)
	}
	sessions := get("/v1/sessions")
	var page sessionsPage
	if err := json.Unmarshal([]byte(sessions), &page); err != nil {
		t.Fatalf("/v1/sessions is not JSON: %v\n%s", err, sessions)
	}
	if page.Count != 1 || page.Sessions[0].ID != id || page.Sessions[0].Queries != 1 {
		t.Fatalf("/v1/sessions = %s, want the one session %q with 1 query", sessions, id)
	}
}

// TestReadinessLifecycle verifies /readyz (via the mounted DebugServer)
// tracks the admission state: 503 before Start, 200 while serving, 503
// during drain — with /healthz green throughout.
func TestReadinessLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	ds := obs.NewDebugServer(reg)
	s := New(&stubBackend{}, Config{Obs: reg, Debug: ds})

	probe := func(path string) int {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Code
	}
	if code := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Start = %d, want 503", code)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code := probe("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz while serving = %d, want 200", code)
	}
	if code := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while serving = %d, want 200", code)
	}
	// Drain over the real listener so the HTTP server is exercised too.
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", code)
	}
	if code := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestDrainShedsQueuedCompletesInflight is the drain contract in miniature:
// the in-flight query finishes with 200, the queued one sheds with 429,
// and Shutdown returns before its deadline.
func TestDrainShedsQueuedCompletesInflight(t *testing.T) {
	s, started, release := blockingServer(Config{Workers: 1, QueueDepth: 2})
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
				bytes.NewReader([]byte(`{"sql":"held"}`)))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	<-started
	waitFor(t, func() bool { return s.Queued() == 1 })

	// Release the backend only after drain begins, so the in-flight query
	// completes *during* the drain window.
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.beginDrain()
		close(release)
		drainErr <- s.Shutdown(ctx)
	}()

	got := map[int]int{}
	for i := 0; i < 2; i++ {
		got[<-codes]++
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got[http.StatusOK] != 1 || got[http.StatusTooManyRequests] != 1 {
		t.Fatalf("drain statuses = %v, want one 200 and one 429", got)
	}
}

// TestServeLifecycleAndCycleScheduler runs the full Serve shape: background
// cycle scheduler ticks concurrently with queries, ctx cancellation drains,
// and OnDrain flushes.
func TestServeLifecycleAndCycleScheduler(t *testing.T) {
	var mu sync.Mutex
	cycles := 0
	flushed := false
	s := New(&stubBackend{}, Config{
		CycleEvery: 5 * time.Millisecond,
		Cycle: func(ctx context.Context) error {
			mu.Lock()
			cycles++
			mu.Unlock()
			return nil
		},
		OnDrain: func() error {
			mu.Lock()
			flushed = true
			mu.Unlock()
			return nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, "127.0.0.1:0") }()
	waitFor(t, func() bool { return s.Addr() != "" })
	addr := s.Addr()

	resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"sql":"live"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query during Serve = %d", resp.StatusCode)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return cycles >= 2 })

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !flushed {
		t.Fatal("OnDrain never ran")
	}
}

// TestCycleFailureIsNotFatal verifies a failing cycle is metered and the
// scheduler keeps ticking for the next attempt.
func TestCycleFailureIsNotFatal(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	n := 0
	s := New(&stubBackend{}, Config{
		Obs:        reg,
		CycleEvery: 5 * time.Millisecond,
		Cycle: func(ctx context.Context) error {
			mu.Lock()
			defer mu.Unlock()
			n++
			if n == 1 {
				return fmt.Errorf("injected cycle failure")
			}
			return nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, "127.0.0.1:0") }()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return n >= 3 })
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve_cycle_failures_total"] != 1 {
		t.Fatalf("serve_cycle_failures_total = %d, want 1", snap.Counters["serve_cycle_failures_total"])
	}
	if snap.Counters["serve_cycles_total"] < 3 {
		t.Fatalf("serve_cycles_total = %d, want >= 3", snap.Counters["serve_cycles_total"])
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
