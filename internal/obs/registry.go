// Package obs is the observability layer: a process-wide metrics registry
// (counters, gauges, histograms with labels), a lightweight span tree for
// per-query tracing, and exporters. Everything is stdlib-only; the metric
// hot path is a single atomic add on a pre-resolved handle, so metered code
// pays no lock and no map lookup per event.
//
// The intended pattern mirrors production metric libraries: resolve the
// instrument once (at construction or first use), then increment it from
// any goroutine:
//
//	reg := obs.NewRegistry()
//	c := reg.Counter("engine_bytes_read_total")
//	...
//	c.Add(n) // lock-free
//
// Snapshot() returns a deterministic point-in-time copy for tests and for
// the JSON / expvar-style text exporters.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// L is one metric label (key=value). Labels distinguish series under the
// same metric name, e.g. Counter("combiner_opens_total", L{"mode", "fallback"}).
type L struct {
	K, V string
}

// Name is a metric name. The registration methods take a Name rather than a
// string: an untyped constant converts to it and a string variable does not
// compile, so every name is fixed in the source text and only label values
// can make series. Nothing outside this package converts a string to a Name
// (CI greps for it).
type Name string

var snakeCaseRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// nameSuffixes maps each registration method to the endings its names may
// have: counters count events, histograms carry a unit (_count for unitless
// distributions), gauges either.
var nameSuffixes = map[string][]string{
	"Counter":   {"_total"},
	"Histogram": {"_ns", "_bytes", "_count"},
	"Gauge":     {"_total", "_ns", "_bytes", "_count"},
	"GaugeFunc": {"_total", "_ns", "_bytes", "_count"},
}

// mustBeValid panics unless name and labels are fit to become a series of the
// given kind (the registration method's name). It runs when a series is
// created, never on the lookup of an existing one. Like regexp.MustCompile it
// panics because names are constants: a bad one is a bug in the source, and
// the first test to construct the component finds it. Label values are the
// one dynamic part of a series key, so they must not be able to close the
// label set and start a sample line of their own in the text expositions.
func mustBeValid(kind string, name Name, labels []L) {
	if !snakeCaseRE.MatchString(string(name)) {
		panic(fmt.Sprintf("obs.%s name %q is not snake_case", kind, name))
	}
	suffixes := nameSuffixes[kind]
	ok := false
	for _, s := range suffixes {
		ok = ok || strings.HasSuffix(string(name), s)
	}
	if !ok {
		panic(fmt.Sprintf("obs.%s name %q must end in %s", kind, name, strings.Join(suffixes, ", ")))
	}
	for _, l := range labels {
		if l.K == "le" {
			panic(fmt.Sprintf("obs.%s label key %q is reserved: the Prometheus exporter emits it on histogram bucket series", kind, l.K))
		}
		if !snakeCaseRE.MatchString(l.K) {
			panic(fmt.Sprintf("obs.%s label key %q is not snake_case", kind, l.K))
		}
		if strings.ContainsAny(l.V, "\"\\\n") {
			panic(fmt.Sprintf("obs.%s label %s value %q contains a quote, backslash or newline", kind, l.K, l.V))
		}
	}
}

// seriesKey renders name plus canonically ordered labels, the registry's
// map key and the exporters' series name.
func seriesKey(name string, labels []L) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]L{}, labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.K)
		sb.WriteString(`="`)
		sb.WriteString(l.V)
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Lock-free.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value loads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (settable, not monotonic).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Lock-free.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value loads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket i counts observations v
// with bits.Len64(v) == i, i.e. power-of-two ranges [2^(i-1), 2^i).
const histBuckets = 64

// Histogram accumulates a value distribution in power-of-two buckets.
// Observe is a pair of atomic adds — no locks, no allocation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets + 1]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistBucket is one power-of-two histogram bucket in a snapshot: Count
// observations with value <= LE (and greater than the previous bucket's LE).
type HistBucket struct {
	// LE is the bucket's inclusive upper bound, 2^i - 1 for bucket index i
	// (0 for the zero bucket) — directly usable as a Prometheus `le` value.
	LE int64 `json:"le"`
	// Count is the number of observations in this bucket alone
	// (non-cumulative; exporters that need cumulative counts sum as they go).
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time histogram copy. Buckets holds the
// non-empty buckets in ascending LE order.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Mean returns sum/count (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func (h *Histogram) snapshot() HistSnapshot {
	out := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			var le int64
			if i > 0 {
				le = 1<<uint(i) - 1
			}
			out.Buckets = append(out.Buckets, HistBucket{LE: le, Count: n})
		}
	}
	return out
}

// counterEntry is one registered counter in creation order; the slice index
// is the counter's stable ordinal for CounterValues/CounterDeltas.
type counterEntry struct {
	key string
	c   *Counter
}

// Registry is a named collection of instruments. Get-or-create calls take a
// short lock; the returned handles are lock-free. Safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram

	// counterList mirrors counters in creation order. Append-only: index i
	// refers to the same counter for the registry's lifetime, which makes a
	// plain []int64 of values a valid "pre" state for CounterDeltas without
	// copying any map or key.
	counterList []counterEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name Name, labels ...L) *Counter {
	key := seriesKey(string(name), labels)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	mustBeValid("Counter", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[key]; ok {
		return c
	}
	c = &Counter{}
	r.counters[key] = c
	r.counterList = append(r.counterList, counterEntry{key: key, c: c})
	return c
}

// CounterValues appends every registered counter's current value to buf in
// registration order and returns the extended slice. Because the registry's
// counter list is append-only, index i names the same series across calls:
// the result is a position-stable "pre" state for CounterDeltas that costs
// one slice walk — no map copy, no per-series allocation — which is what the
// flight recorder snapshots on every query begin.
func (r *Registry) CounterValues(buf []int64) []int64 {
	r.mu.RLock()
	list := r.counterList
	r.mu.RUnlock()
	for _, e := range list {
		buf = append(buf, e.c.Value())
	}
	return buf
}

// CounterDeltas returns name → (current − pre[i]) for every counter that
// moved since pre was captured with CounterValues on this registry. Counters
// registered after the capture (i ≥ len(pre)) diff against zero, which is
// exact: a counter born after the capture started at zero.
func (r *Registry) CounterDeltas(pre []int64) map[string]int64 {
	r.mu.RLock()
	list := r.counterList
	r.mu.RUnlock()
	var out map[string]int64
	for i, e := range list {
		v := e.c.Value()
		if i < len(pre) {
			v -= pre[i]
		}
		if v != 0 {
			if out == nil {
				out = make(map[string]int64)
			}
			out[e.key] = v
		}
	}
	return out
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name Name, labels ...L) *Gauge {
	key := seriesKey(string(name), labels)
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	mustBeValid("Gauge", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[key]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[key] = g
	return g
}

// GaugeFunc registers a callback gauge: the function is evaluated at
// snapshot/export time. Re-registering a key replaces the callback.
func (r *Registry) GaugeFunc(name Name, f func() int64, labels ...L) {
	mustBeValid("GaugeFunc", name, labels)
	key := seriesKey(string(name), labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[key] = f
}

// Histogram returns the histogram for name+labels, creating it on first use.
func (r *Registry) Histogram(name Name, labels ...L) *Histogram {
	key := seriesKey(string(name), labels)
	r.mu.RLock()
	h, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	mustBeValid("Histogram", name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[key]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[key] = h
	return h
}

// Snapshot is a deterministic point-in-time copy of every instrument.
// Callback gauges are evaluated once, under no registry lock contention
// with the hot path (hot-path writers never take the lock).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter's value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string, labels ...L) int64 {
	return s.Counters[seriesKey(name, labels)]
}

// Gauge returns a gauge's value from the snapshot (0 when absent).
func (s Snapshot) Gauge(name string, labels ...L) int64 {
	return s.Gauges[seriesKey(name, labels)]
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, f := range r.gaugeFuncs {
		funcs[k] = f
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.RUnlock()

	out := Snapshot{}
	if len(counters) > 0 {
		out.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			out.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 || len(funcs) > 0 {
		out.Gauges = make(map[string]int64, len(gauges)+len(funcs))
		for k, g := range gauges {
			out.Gauges[k] = g.Value()
		}
		for k, f := range funcs {
			out.Gauges[k] = f()
		}
	}
	if len(hists) > 0 {
		out.Histograms = make(map[string]HistSnapshot, len(hists))
		for k, h := range hists {
			out.Histograms[k] = h.snapshot()
		}
	}
	return out
}

// WriteJSON exports the snapshot as one JSON document (map keys are
// marshaled in sorted order, so the output is deterministic).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText exports the snapshot expvar-style: one "name value" line per
// series, sorted by name. Histograms export _count, _sum, _mean, and one
// _bucket{le="..."} line per non-empty bucket (non-cumulative counts, in
// ascending bound order).
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var lines []string
	for k, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s_count %d", k, h.Count))
		lines = append(lines, fmt.Sprintf("%s_sum %d", k, h.Sum))
		lines = append(lines, fmt.Sprintf("%s_mean %.1f", k, h.Mean()))
		for _, b := range h.Buckets {
			lines = append(lines, fmt.Sprintf("%s %d",
				bucketSeries(k, fmt.Sprintf("%d", b.LE)), b.Count))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// splitSeriesKey undoes seriesKey: "name{k=\"v\"}" → ("name", `k="v"`).
// The registry is the only writer of these keys, so splitting on the first
// '{' is exact.
func splitSeriesKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// bucketSeries renders the _bucket series for one histogram bucket,
// splicing le into the series' existing label set:
// "hist_ns{cache=\"x\"}" + "255" → `hist_ns_bucket{cache="x",le="255"}`.
func bucketSeries(key, le string) string {
	name, labels := splitSeriesKey(key)
	if labels == "" {
		return name + `_bucket{le="` + le + `"}`
	}
	return name + `_bucket{` + labels + `,le="` + le + `"}`
}
