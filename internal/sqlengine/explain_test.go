package sqlengine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestExplainAnalyzeAnnotatedTree(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t)
	e.SetObsRegistry(reg)
	stmt, err := Parse(`
		SELECT date, get_json_object(sale_logs, '$.turnover') AS turnover
		FROM mydb.t
		WHERE get_json_object(sale_logs, '$.sale_count') > 3
		ORDER BY date DESC
		LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	out, rs, m, err := e.ExplainAnalyzeStmtCtx(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	for _, want := range []string{
		"EXPLAIN ANALYZE",
		"Limit 5",
		"Sort date DESC",
		"Filter",
		"Scan mydb.t",
		"split 0: raw",
		"split 2: raw",
		"splits=3",
		"parse-docs=31",
		"totals:",
		"plan:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "simulated") {
		t.Errorf("explain output prints modelled time:\n%s", out)
	}
	if m.Trace == nil || len(m.Trace.Children()) == 0 || m.Trace.Children()[0].Name != "plan" {
		t.Error("trace missing plan span")
	}
	// The engine registry saw the query.
	s := reg.Snapshot()
	if s.Counter("engine_queries_total") != 1 {
		t.Errorf("engine_queries_total = %d", s.Counter("engine_queries_total"))
	}
	if s.Counter("engine_parse_docs_total") != 31 {
		t.Errorf("engine_parse_docs_total = %d", s.Counter("engine_parse_docs_total"))
	}
}

func TestQueryTracedMatchesUntracedResults(t *testing.T) {
	e := newTestEngine(t)
	rs1, m1, err := e.QueryCtx(context.Background(), "SELECT COUNT(*) AS n FROM mydb.t")
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := Parse("SELECT COUNT(*) AS n FROM mydb.t")
	if err != nil {
		t.Fatal(err)
	}
	_, rs2, m2, err := e.ExplainAnalyzeStmtCtx(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rs1.Rows[0][0].I != rs2.Rows[0][0].I {
		t.Errorf("traced result diverged: %v vs %v", rs1.Rows[0], rs2.Rows[0])
	}
	if c1, c2 := meteredCounters(m1), meteredCounters(m2); c1 != c2 {
		t.Errorf("tracing changed a counter:\nuntraced %+v\ntraced   %+v", c1, c2)
	}
	if m1.Trace != nil {
		t.Error("untraced query grew a trace")
	}
	if m2.Trace == nil {
		t.Error("traced query missing trace")
	}
}

// counterValues is every counter a Metrics meters, as plain values.
type counterValues struct {
	BytesRead, RowsScanned, RowGroupsRead, RowGroupsSkipped int64
	Parse                                                   ParseCounts
	RowOps, PrefilterBytes, PrefilterSkipped                int64
	CacheValuesRead, CacheHits, CacheMisses, Batches        int64
	ScanModes                                               uint32
	PlanExprNodes                                           int64
}

func meteredCounters(m *Metrics) counterValues {
	return counterValues{
		BytesRead:        m.BytesRead.Load(),
		RowsScanned:      m.RowsScanned.Load(),
		RowGroupsRead:    m.RowGroupsRead.Load(),
		RowGroupsSkipped: m.RowGroupsSkipped.Load(),
		Parse:            m.Parse.Snapshot(),
		RowOps:           m.RowOps.Load(),
		PrefilterBytes:   m.PrefilterBytes.Load(),
		PrefilterSkipped: m.PrefilterSkipped.Load(),
		CacheValuesRead:  m.CacheValuesRead.Load(),
		CacheHits:        m.CacheHits.Load(),
		CacheMisses:      m.CacheMisses.Load(),
		Batches:          m.Batches.Load(),
		ScanModes:        m.ScanModes(),
		PlanExprNodes:    m.PlanExprNodes,
	}
}
