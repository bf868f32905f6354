package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/sqlengine"
)

// admissionError classifies why a request was not admitted; Status is the
// HTTP mapping and RetryAfter marks shed responses that should carry the
// Retry-After hint.
type admissionError struct {
	Status     int
	Msg        string
	RetryAfter bool
}

func (e *admissionError) Error() string { return e.Msg }

var (
	errNotStarted = errors.New("serve: not started")
	errDraining   = errors.New("serve: draining")

	// errQueueFull sheds an arrival past the bounded wait queue.
	errQueueFull = &admissionError{
		Status: http.StatusTooManyRequests, Msg: "server overloaded: wait queue full", RetryAfter: true}
	// errQueueDeadline sheds a queued request whose own deadline fired
	// before a worker slot freed — it must not start doomed work.
	errQueueDeadline = &admissionError{
		Status: http.StatusGatewayTimeout, Msg: "request deadline exceeded while queued"}
	// errDrainingAdmission sheds queued and arriving work during drain.
	errDrainingAdmission = &admissionError{
		Status: http.StatusTooManyRequests, Msg: "server draining", RetryAfter: true}
	// errSessionLimit sheds a session exceeding its concurrency bound.
	errSessionLimit = &admissionError{
		Status: http.StatusTooManyRequests, Msg: "session in-flight limit reached", RetryAfter: true}
	// errSessionsFull rejects a new session past MaxSessions.
	errSessionsFull = &admissionError{
		Status: http.StatusTooManyRequests, Msg: "session table full", RetryAfter: true}
)

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	SQL string `json:"sql"`
	// Session names the client session (default "default"); sessions carry
	// per-session limits and show up on /v1/sessions. A named session also
	// rides the query context to the shared-scan scheduler, which does not
	// take a session's own repeat for a second client.
	Session string `json:"session,omitempty"`
	// TimeoutMS can only shorten the server's QueryTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// queryResponse is the POST /v1/query success body.
type queryResponse struct {
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	RowCount int        `json:"row_count"`
	WallMS   float64    `json:"wall_ms"`
	QueueMS  float64    `json:"queue_ms"`
	PlanMode string     `json:"plan_mode,omitempty"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBody bounds the /v1/query body (a SQL statement, not a bulk
// load path).
const maxRequestBody = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.SQL == "" {
		writeJSONError(w, http.StatusBadRequest, "missing sql")
		return
	}
	s.requests.Inc()

	sess, aerr := s.session(req.Session)
	if aerr != nil {
		s.shedResponse(w, aerr)
		return
	}
	if aerr := sess.begin(s.cfg.SessionMaxInflight); aerr != nil {
		s.shedResponse(w, aerr)
		return
	}
	defer sess.end()

	// The per-query deadline covers queue wait AND execution: a request
	// can't wait past its own timeout, and the engine checks the same ctx
	// between batches.
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(sqlengine.WithSession(r.Context(), req.Session), timeout)
	defer cancel()

	queueStart := time.Now()
	release, aerr := s.admit(ctx)
	if aerr != nil {
		s.shedResponse(w, aerr)
		return
	}
	defer release()
	queueWait := time.Since(queueStart)
	s.queueWait.Observe(queueWait.Nanoseconds())

	// The decrement is deferred so a panicking backend (absorbed by protect)
	// can never leak an in-flight count.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	rs, met, err := s.backend.QueryCtx(ctx, req.SQL)
	wall := time.Since(start)
	s.wall.Observe(wall.Nanoseconds())
	if err != nil {
		s.errors.Inc()
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// The client went away (or drain's deadline killed the conn).
			status = statusClientClosedRequest
		}
		writeJSONError(w, status, err.Error())
		return
	}

	resp := queryResponse{
		Columns:  rs.Columns,
		Rows:     make([][]string, 0, len(rs.Rows)),
		RowCount: len(rs.Rows),
		WallMS:   float64(wall.Microseconds()) / 1e3,
		QueueMS:  float64(queueWait.Microseconds()) / 1e3,
	}
	if met != nil {
		resp.PlanMode = met.PlanModeString()
	}
	for _, row := range rs.Rows {
		out := make([]string, len(row))
		for i, d := range row {
			out[i] = d.AsString()
		}
		resp.Rows = append(resp.Rows, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is nginx's conventional code for a request the
// client abandoned; stdlib has no named constant for it.
const statusClientClosedRequest = 499

// sessionsPage is the GET /v1/sessions body.
type sessionsPage struct {
	Count    int           `json:"count"`
	Sessions []sessionView `json:"sessions"`
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	views := make([]sessionView, 0, len(s.sessions))
	for _, sess := range s.sessions {
		views = append(views, sess.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, http.StatusOK, sessionsPage{Count: len(views), Sessions: views})
}

// shedResponse writes one admission failure, counting it as shed load and
// attaching the Retry-After hint where retrying can help.
func (s *Server) shedResponse(w http.ResponseWriter, aerr *admissionError) {
	s.shed.Inc()
	if aerr.RetryAfter {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSONError(w, aerr.Status, aerr.Msg)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(body); err != nil {
		// Headers are gone; nothing left but dropping the connection.
		return
	}
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// String renders the config the way the startup log and -h want it.
func (c Config) String() string {
	return fmt.Sprintf("workers=%d queue=%d query_timeout=%v drain=%v",
		c.Workers, c.QueueDepth, c.QueryTimeout, c.DrainTimeout)
}
