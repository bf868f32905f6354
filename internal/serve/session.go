package serve

import (
	"context"
	"sync"
	"time"
)

// session is one named client session: per-session limits and the activity
// stats /v1/sessions reports, so an operator can see who is loading the
// server. A session id is client-chosen and unbounded over time, so it never
// becomes a metric label: the registry only gets serve_session_count.
type session struct {
	id      string
	created time.Time

	mu         sync.Mutex
	lastActive time.Time
	inflight   int
	queries    int64
}

// sessionView is one session's row on /v1/sessions.
type sessionView struct {
	ID         string    `json:"id"`
	Created    time.Time `json:"created"`
	LastActive time.Time `json:"last_active"`
	Inflight   int       `json:"inflight"`
	Queries    int64     `json:"queries"`
	IdleMS     int64     `json:"idle_ms"`
}

// session returns the named session, creating it under the MaxSessions
// bound. The empty name maps to "default" so anonymous clients share one
// session's limits rather than minting unbounded session state.
func (s *Server) session(id string) (*session, *admissionError) {
	if id == "" {
		id = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		return sess, nil
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, errSessionsFull
	}
	now := time.Now()
	fresh := &session{id: id, created: now, lastActive: now}
	s.sessions[id] = fresh
	return fresh, nil
}

// begin admits one query into the session under its in-flight bound.
func (sess *session) begin(limit int) *admissionError {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.inflight >= limit {
		return errSessionLimit
	}
	sess.inflight++
	sess.queries++
	sess.lastActive = time.Now()
	return nil
}

// end releases one query's session slot.
func (sess *session) end() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.inflight--
	sess.lastActive = time.Now()
}

func (sess *session) view() sessionView {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sessionView{
		ID:         sess.id,
		Created:    sess.created,
		LastActive: sess.lastActive,
		Inflight:   sess.inflight,
		Queries:    sess.queries,
		IdleMS:     time.Since(sess.lastActive).Milliseconds(),
	}
}

// idle reports whether the session can be reaped as of now.
func (sess *session) idle(now time.Time, horizon time.Duration) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.inflight == 0 && now.Sub(sess.lastActive) >= horizon
}

// reapLoop deletes idle sessions every SessionIdle/4 until ctx is done.
func (s *Server) reapLoop(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	period := s.cfg.SessionIdle / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.reapIdleSessions(time.Now())
		}
	}
}

// reapIdleSessions removes sessions idle past the horizon with nothing in
// flight. Returns how many were reaped.
func (s *Server) reapIdleSessions(now time.Time) int {
	s.mu.Lock()
	var victims []*session
	for id, sess := range s.sessions {
		if sess.idle(now, s.cfg.SessionIdle) {
			victims = append(victims, sess)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, sess := range victims {
		s.log.Info("session reaped", "session", sess.id, "queries", sess.queries)
	}
	return len(victims)
}
