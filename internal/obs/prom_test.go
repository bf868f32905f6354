package obs

import (
	"bytes"
	"testing"
)

// TestWritePromGolden pins the full Prometheus text exposition: TYPE lines
// per family, sorted series, and complete histogram exposition with
// cumulative power-of-two buckets closed by le="+Inf".
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(7)
	r.Counter("c_total", L{"k", "v"}).Add(3)
	r.Gauge("g_count").Set(-5)
	r.Histogram("h_ns").Observe(10)  // bits.Len64(10)=4 → le=15
	r.Histogram("h_ns").Observe(100) // bits.Len64(100)=7 → le=127
	r.Histogram("h_ns", L{"q", "a"}).Observe(1)

	var b1, b2 bytes.Buffer
	if err := r.WriteProm(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("exposition not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}

	want := `# TYPE c_total counter
c_total 7
c_total{k="v"} 3
# TYPE g_count gauge
g_count -5
# TYPE h_ns histogram
h_ns_bucket{le="15"} 1
h_ns_bucket{le="127"} 2
h_ns_bucket{le="+Inf"} 2
h_ns_sum 110
h_ns_count 2
h_ns_bucket{q="a",le="1"} 1
h_ns_bucket{q="a",le="+Inf"} 1
h_ns_sum{q="a"} 1
h_ns_count{q="a"} 1
`
	if b1.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b1.String(), want)
	}
}

// TestWritePromEmptyHistogram checks a never-observed histogram still closes
// with the mandatory +Inf bucket and zero _sum/_count.
func TestWritePromEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("idle_ns")
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE idle_ns histogram
idle_ns_bucket{le="+Inf"} 0
idle_ns_sum 0
idle_ns_count 0
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}
