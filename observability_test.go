package maxson

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFlightRecorderThroughSystem drives the public API end to end and
// checks the flight recorder's view of it: IDs assigned in order, plan
// modes tracking the cache lifecycle (raw before the midnight cycle, cached
// after), totals and metric deltas attributed per query.
func TestFlightRecorderThroughSystem(t *testing.T) {
	sys := buildDemo(t)
	rec := sys.Flight()
	if rec == nil || !rec.Enabled() {
		t.Fatal("flight recorder not enabled by default")
	}
	sql := `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.sales WHERE date = '20190105'`

	if _, _, err := sys.QueryCtx(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	recs := rec.Recent(1)
	if len(recs) != 1 {
		t.Fatalf("Recent = %d records, want 1", len(recs))
	}
	r0 := recs[0]
	if r0.ID != 1 || r0.SQL != sql {
		t.Errorf("record = id=%d sql=%q", r0.ID, r0.SQL)
	}
	if r0.PlanMode != "raw" {
		t.Errorf("uncached plan mode = %q, want raw", r0.PlanMode)
	}
	if r0.ParseDocs == 0 || r0.BytesRead == 0 || r0.RowsOut != 1 || r0.Batches == 0 {
		t.Errorf("totals = %+v", r0)
	}
	if r0.Deltas["engine_queries_total"] != 1 {
		t.Errorf("deltas = %v, want engine_queries_total=1", r0.Deltas)
	}
	var stages []string
	for _, s := range r0.Stages {
		stages = append(stages, s.Name)
	}
	// Measured walls only: the cost model's simulated breakdown is for the
	// paper's figures, not an operator's record of this query.
	if got := strings.Join(stages, ","); got != "plan,execute" {
		t.Errorf("stages = %s, want plan,execute", got)
	}

	// Converge the cache, then check the recorder sees the mode flip.
	for day := 0; day < 10; day++ {
		if day > 0 {
			sys.AdvanceClock(24 * time.Hour)
		}
		for rep := 0; rep < 3; rep++ {
			if _, _, err := sys.QueryCtx(context.Background(), sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys.AdvanceToMidnight()
	if _, err := sys.RunMidnightCycleCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.QueryCtx(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	cached := rec.Recent(1)[0]
	if cached.PlanMode != "cached" && cached.PlanMode != "combined" {
		t.Errorf("post-cycle plan mode = %q, want cached or combined", cached.PlanMode)
	}
	if cached.ParseDocs != 0 {
		t.Errorf("post-cycle record parsed %d docs", cached.ParseDocs)
	}
	if cached.CacheValues == 0 {
		t.Error("post-cycle record read no cache values")
	}
	if cached.ID <= r0.ID {
		t.Errorf("IDs not monotonic: %d then %d", r0.ID, cached.ID)
	}
}

// TestFlightRecorderDisabled checks FlightQueries<0 turns recording off
// without disturbing the query path.
func TestFlightRecorderDisabled(t *testing.T) {
	sys := NewSystem(SystemConfig{DefaultDB: "d", FlightQueries: -1})
	if sys.Flight() != nil {
		t.Fatal("recorder present despite FlightQueries=-1")
	}
	sys.Warehouse().CreateDatabase("d")
	if err := sys.Warehouse().CreateTable("d", "t", Schema{Columns: []Column{
		{Name: "j", Type: TypeString}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Warehouse().AppendRows("d", "t", [][]Datum{{Str(`{"a":1}`)}}); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceClock(24 * time.Hour)
	rs, _, err := sys.QueryCtx(context.Background(), `SELECT get_json_object(j, '$.a') FROM d.t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

// TestDebugServerThroughSystem exercises every route of the wired debug
// server against a live system: Prometheus metrics carrying engine series
// with histogram buckets, the flight recorder page, the cycle report, and
// health.
func TestDebugServerThroughSystem(t *testing.T) {
	sys := buildDemo(t)
	sql := `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.sales WHERE date = '20190105'`
	if _, _, err := sys.QueryCtx(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	ds := sys.NewDebugServer()
	h := ds.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		return rr
	}

	rr := get("/metrics")
	if rr.Code != http.StatusOK || rr.Header().Get("Content-Type") != obs.PromContentType {
		t.Fatalf("/metrics = %d %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE engine_queries_total counter",
		"# TYPE engine_query_wall_ns histogram",
		`engine_query_wall_ns_bucket{le="+Inf"} 1`,
		"# TYPE engine_batch_rows_count histogram",
		"flight_queries_recorded_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rr = get("/debug/queries")
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/queries = %d", rr.Code)
	}
	var page struct {
		Total   uint64            `json:"total"`
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || len(page.Records) != 1 {
		t.Errorf("queries page = total=%d records=%d", page.Total, len(page.Records))
	}

	if rr = get("/debug/cycle"); rr.Code != http.StatusNotFound {
		t.Errorf("/debug/cycle before any cycle = %d, want 404", rr.Code)
	}
	sys.AdvanceToMidnight()
	if _, err := sys.RunMidnightCycleCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	rr = get("/debug/cycle")
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/cycle after a cycle = %d", rr.Code)
	}
	var report CycleReport
	if err := json.Unmarshal(rr.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Stages) != 5 {
		t.Errorf("cycle report stages = %d, want 5", len(report.Stages))
	}
	for _, field := range []string{`"SplitsCarried"`, `"SplitsExtracted"`, `"BytesCarried"`} {
		if !strings.Contains(rr.Body.String(), field) {
			t.Errorf("/debug/cycle does not show %s", field)
		}
	}

	if rr = get("/healthz"); rr.Code != http.StatusOK {
		t.Errorf("/healthz = %d", rr.Code)
	}
	if rr = get("/debug/pprof/"); rr.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", rr.Code)
	}
}

// TestTraceExportThroughSystem checks a traced query's span tree exports as
// loadable Chrome trace-event JSON with the plan/scan structure intact.
func TestTraceExportThroughSystem(t *testing.T) {
	sys := buildDemo(t)
	_, _, m, err := sys.ExplainCtx(context.Background(), `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.sales`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace == nil {
		t.Fatal("Explain produced no trace")
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, m.Trace); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace export not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q phase = %q", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	if !names["query"] && !names["scan"] {
		t.Errorf("trace events missing query/scan spans: %v", names)
	}
}
