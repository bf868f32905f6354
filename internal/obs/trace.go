package obs

import (
	"fmt"
	"sync"
	"time"
)

// Span is one node of a per-query trace tree: a named operation with
// ordered key/value attributes and child spans. Spans are safe for
// concurrent child creation and attribute writes (scan partitions run in
// parallel); attribute and child order is the order of creation, so
// callers that need deterministic rendering create spans before fanning
// out goroutines.
//
// Each span also carries a wall-clock window: start is stamped at
// creation, end by End (or SetWindow/Begin for callers whose span objects
// are created before or after the work they cover). The window feeds the
// Chrome trace-event exporter; EXPLAIN ANALYZE ignores it, so its output
// stays deterministic.
type Span struct {
	Name string

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	start    time.Time
	end      time.Time
}

// Attr is one span attribute. Values are pre-rendered strings so the tree
// is cheap to walk and deterministic to print.
type Attr struct {
	Key string
	Val string
}

// NewSpan starts a trace rooted at a span with the given name.
func NewSpan(name string) *Span { return &Span{Name: name, start: time.Now()} }

// Child creates and appends a child span.
func (s *Span) Child(name string) *Span {
	c := &Span{Name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Begin re-stamps the span's start time. Executors that pre-create spans
// (so tree order stays deterministic across a concurrent fan-out) call it
// when the covered work actually starts.
func (s *Span) Begin() {
	s.mu.Lock()
	s.start = time.Now()
	s.mu.Unlock()
}

// End stamps the span's end time. The first call wins; spans never ended
// inherit an effective end from their children at export time.
func (s *Span) End() {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetWindow backfills the span's wall-clock window — for spans created
// after the work they describe completed (aggregate/sort spans are built
// from measured deltas once the phase is done).
func (s *Span) SetWindow(start, end time.Time) {
	s.mu.Lock()
	s.start, s.end = start, end
	s.mu.Unlock()
}

// Window returns the recorded (start, end); end is zero until End or
// SetWindow runs.
func (s *Span) Window() (start, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start, s.end
}

// Set records a string attribute. Re-setting a key overwrites in place so
// attribute order stays stable.
func (s *Span) Set(key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.Set(key, fmt.Sprintf("%d", v)) }

// Attr returns an attribute's value ("" when absent).
func (s *Span) Attr(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Attrs returns a copy of the attributes in recording order.
func (s *Span) Attrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr{}, s.attrs...)
}

// Children returns a copy of the child list in creation order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span{}, s.children...)
}
