package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Mix pre-resolved handles with per-iteration lookups and labeled
			// series, all racing on the same names.
			pre := r.Counter("pre_resolved_total")
			for i := 0; i < perWorker; i++ {
				pre.Inc()
				r.Counter("looked_up_total").Add(2)
				r.Counter("labeled_total", L{"worker", "shared"}).Inc()
				r.Gauge("last_i_count").Set(int64(i))
				r.Histogram("values_count").Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counter("pre_resolved_total"); got != workers*perWorker {
		t.Errorf("pre_resolved_total = %d, want %d", got, workers*perWorker)
	}
	if got := s.Counter("looked_up_total"); got != 2*workers*perWorker {
		t.Errorf("looked_up_total = %d, want %d", got, 2*workers*perWorker)
	}
	if got := s.Counter("labeled_total", L{"worker", "shared"}); got != workers*perWorker {
		t.Errorf("labeled_total = %d, want %d", got, workers*perWorker)
	}
	h := s.Histograms["values_count"]
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	wantSum := int64(workers) * int64(perWorker) * int64(perWorker-1) / 2
	if h.Sum != wantSum {
		t.Errorf("histogram sum = %d, want %d", h.Sum, wantSum)
	}
}

func TestSeriesKeyCanonicalLabelOrder(t *testing.T) {
	a := seriesKey("m", []L{{"b", "2"}, {"a", "1"}})
	b := seriesKey("m", []L{{"a", "1"}, {"b", "2"}})
	if a != b {
		t.Errorf("label order changed the key: %q vs %q", a, b)
	}
	if a != `m{a="1",b="2"}` {
		t.Errorf("key = %q", a)
	}
}

func TestSnapshotAndExportersDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(7)
	r.Counter("c_total", L{"k", "v"}).Add(3)
	r.Gauge("g_count").Set(-5)
	r.GaugeFunc("gf_count", func() int64 { return 42 })
	r.Histogram("h_ns").Observe(10)
	r.Histogram("h_ns").Observe(100)

	var t1, t2 bytes.Buffer
	if err := r.WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Errorf("text export not deterministic:\n%s\nvs\n%s", t1.String(), t2.String())
	}
	want := "c_total 7\n" +
		"c_total{k=\"v\"} 3\n" +
		"g_count -5\n" +
		"gf_count 42\n" +
		"h_ns_bucket{le=\"127\"} 1\n" + // 100 → 2^7-1 bucket (lexicographic line sort)
		"h_ns_bucket{le=\"15\"} 1\n" + // 10 → 2^4-1 bucket
		"h_ns_count 2\n" +
		"h_ns_mean 55.0\n" +
		"h_ns_sum 110\n"
	if t1.String() != want {
		t.Errorf("text export:\n%s\nwant:\n%s", t1.String(), want)
	}

	var j1, j2 bytes.Buffer
	if err := r.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Error("JSON export not deterministic")
	}
	var decoded Snapshot
	if err := json.Unmarshal(j1.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON export not parseable: %v", err)
	}
	if decoded.Counters["c_total"] != 7 || decoded.Gauges["gf_count"] != 42 {
		t.Errorf("decoded snapshot = %+v", decoded)
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := int64(1)
	r.GaugeFunc("live_count", func() int64 { return v })
	if got := r.Snapshot().Gauge("live_count"); got != 1 {
		t.Fatalf("gauge = %d", got)
	}
	v = 9
	if got := r.Snapshot().Gauge("live_count"); got != 9 {
		t.Fatalf("gauge after change = %d", got)
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("query")
	root.SetInt("rows", 3)
	scan := root.Child("scan")
	scan.Set("table", "db.t")

	// Parallel attribute writes and child creation must be safe.
	var wg sync.WaitGroup
	splits := make([]*Span, 4)
	for i := range splits {
		splits[i] = scan.Child("split") // pre-created, deterministic order
	}
	for i, sp := range splits {
		wg.Add(1)
		go func(i int, sp *Span) {
			defer wg.Done()
			sp.SetInt("rows", int64(i))
			sp.Set("source", "raw")
		}(i, sp)
	}
	wg.Wait()

	if len(scan.Children()) != 4 {
		t.Fatalf("children = %d", len(scan.Children()))
	}
	if kids := root.Children(); len(kids) != 1 || kids[0] != scan {
		t.Errorf("root children = %v, want [scan]", kids)
	}
	root.Set("mode", "raw")
	root.SetInt("rows", 5) // overwrite keeps position
	if got := root.Attrs(); len(got) != 2 || got[0] != (Attr{"rows", "5"}) || got[1] != (Attr{"mode", "raw"}) {
		t.Errorf("root attrs = %v, want rows=5 then mode=raw", got)
	}
	for i, sp := range scan.Children() {
		if sp != splits[i] || sp.Attr("rows") != strconv.Itoa(i) {
			t.Errorf("split %d out of creation order: rows=%q", i, sp.Attr("rows"))
		}
	}
}

func TestCounterValuesAndDeltas(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total")
	b := r.Counter("b_total", L{"mode", "x"})
	a.Add(3)

	pre := r.CounterValues(nil)
	if len(pre) != 2 {
		t.Fatalf("CounterValues len = %d, want 2", len(pre))
	}
	a.Add(2)
	b.Inc()
	// A counter created after the pre capture diffs against zero.
	r.Counter("late_total").Add(7)

	d := r.CounterDeltas(pre)
	want := map[string]int64{"a_total": 2, `b_total{mode="x"}`: 1, "late_total": 7}
	if len(d) != len(want) {
		t.Fatalf("deltas = %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("delta[%s] = %d, want %d", k, d[k], v)
		}
	}

	// Unmoved counters are omitted; buffer reuse keeps positions stable.
	pre2 := r.CounterValues(pre[:0])
	if len(pre2) != 3 {
		t.Fatalf("CounterValues len = %d, want 3", len(pre2))
	}
	if d := r.CounterDeltas(pre2); d != nil {
		t.Errorf("no movement should yield nil deltas, got %v", d)
	}
}

// TestRegistrationNames is the naming discipline the registry enforces when a
// series is created: snake_case names with a per-kind unit suffix, no label
// key the exporter generates itself, no label value that could close the
// label set. (That a name is a constant is the compiler's check: the methods
// take a Name, which a string variable does not convert to.)
func TestRegistrationNames(t *testing.T) {
	none := func() int64 { return 0 }
	const local = "fill_wall_ns"
	bad := []struct {
		panicSubstr string
		register    func(*Registry)
	}{
		{"is not snake_case", func(r *Registry) { r.Counter("ParseCalls_total") }},
		{`"parse_calls" must end in _total`, func(r *Registry) { r.Counter("parse_calls") }},
		{"must end in _ns, _bytes, _count", func(r *Registry) { r.Histogram("scan_latency") }},
		{"must end in _total, _ns, _bytes, _count", func(r *Registry) { r.Gauge("queue_depth") }},
		{"must end in _total, _ns, _bytes, _count", func(r *Registry) { r.GaugeFunc("queue_depth", none) }},
		{`label key "le" is reserved`, func(r *Registry) { r.Counter("rows_total", L{K: "le", V: "10"}) }},
		{`label key "le" is reserved`, func(r *Registry) { r.Histogram("wait_ns", L{"le", "10"}) }},
		{`label key "Mode" is not snake_case`, func(r *Registry) { r.Counter("rows_total", L{"Mode", "x"}) }},
		{"contains a quote", func(r *Registry) { r.Counter("rows_total", L{"session", "x\"} 1\nforged_total 9"}) }},
		{"contains a quote", func(r *Registry) { r.Gauge("rows_count", L{"session", `a\`}) }},
		{"contains a quote", func(r *Registry) { r.GaugeFunc("rows_count", none, L{"session", "a\nb"}) }},
	}
	for _, c := range bad {
		r := NewRegistry()
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.panicSubstr) {
					t.Errorf("registration panicked with %q, want a panic containing %q", msg, c.panicSubstr)
				}
			}()
			c.register(r)
		}()
		if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
			t.Errorf("a rejected registration (%s) left a series behind: %+v", c.panicSubstr, s)
		}
	}

	r := NewRegistry()
	r.Counter("parse_calls_total", L{K: "mode", V: "tree"}).Inc()
	r.Histogram("scan_wall_ns").Observe(1)
	r.Histogram("doc_size_bytes").Observe(64)
	r.Histogram("batch_rows_count").Observe(128) // unitless distribution
	r.Gauge("cache_used_bytes").Set(1)
	r.GaugeFunc("cache_entry_count", none)
	r.Counter("level_total", L{K: "level", V: "le"}).Inc() // "le" as a value is fine
	r.Histogram(local).Observe(2)
	if s := r.Snapshot(); len(s.Counters) != 2 || len(s.Gauges) != 2 || len(s.Histograms) != 4 {
		t.Errorf("well-named registrations = %+v, want 2 counters, 2 gauges, 4 histograms", s)
	}
}
