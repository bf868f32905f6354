package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// explainQuery exercises projection, a cacheable predicate, sort and limit —
// every operator the annotated tree renders.
const explainQuery = `
	SELECT date, get_json_object(sale_logs, '$.turnover') AS turnover
	FROM mydb.t
	WHERE get_json_object(sale_logs, '$.item_name') = 'item-05'`

// TestExplainCachedVsUncached is the golden-output check: the same query's
// EXPLAIN ANALYZE before and after a cache population. The fixture is fully
// deterministic and EXPLAIN prints only counters, so exact output is stable.
func TestExplainCachedVsUncached(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb", Obs: reg})

	before, rs, _, err := m.ExplainCtx(context.Background(), explainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][1].S != "50" {
		t.Fatalf("rows = %+v", rs.Rows)
	}
	wantBefore := strings.Join([]string{
		"EXPLAIN ANALYZE",
		"Project [date, turnover]",
		"Filter (get_json_object(sale_logs, '$.item_name') = 'item-05')  | out=1",
		"Scan mydb.t cols=[date sale_logs]                               | splits=3 rows=31 bytes=2672 parse-docs=31 parse-calls=32 parse-bytes-skipped=341 rowgroups=6 rowgroups-skipped=0",
		"  ├─ split 0: raw                                               | rows=10 out=1 bytes=850 parse-docs=10",
		"  ├─ split 1: raw                                               | rows=10 out=0 bytes=868 parse-docs=10",
		"  └─ split 2: raw                                               | rows=11 out=0 bytes=954 parse-docs=11",
		"totals:    read 2672B in 31 rows (6 row-groups, 0 skipped); parsed 31 docs / 1997B / 32 calls (341B skipped); 31 row-ops",
		"plan:      7 expr nodes",
		"",
	}, "\n")
	if before != wantBefore {
		t.Errorf("uncached explain:\n%s\nwant:\n%s", before, wantBefore)
	}

	// Midnight: cache both paths the query uses, then explain again.
	cachePaths(t, m, "$.turnover", "$.item_name")
	after, rs2, am, err := m.ExplainCtx(context.Background(), explainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Rows) != 1 || rs2.Rows[0][1].S != "50" {
		t.Fatalf("cached rows = %+v", rs2.Rows)
	}
	if after == before {
		t.Fatal("explain output unchanged by caching")
	}
	for _, want := range []string{
		"split 0: combined",
		"cache-values=",
		"rowgroups-skipped=",
		"cache ",
	} {
		if !strings.Contains(after, want) {
			t.Errorf("cached explain missing %q:\n%s", want, after)
		}
	}
	if strings.Contains(after, "parse-docs=31") {
		t.Errorf("cached explain still parses every document:\n%s", after)
	}
	if am.CacheValuesRead.Load() == 0 || am.Parse.Docs.Load() != 0 {
		t.Errorf("cached metrics: values=%d parsedDocs=%d",
			am.CacheValuesRead.Load(), am.Parse.Docs.Load())
	}

	// Determinism: a rerun reproduces the exact cached rendering.
	again, _, _, err := m.ExplainCtx(context.Background(), explainQuery)
	if err != nil {
		t.Fatal(err)
	}
	if again != after {
		t.Errorf("cached explain not deterministic:\n%s\nvs\n%s", after, again)
	}
}

// TestCombinerFallbackRetiredCounted plans a query against one cache
// generation, retires and deletes that generation, then executes the stale
// plan: every split must fall back to raw parsing, be counted as
// mode=fallback-retired, and still return correct results.
func TestCombinerFallbackRetiredCounted(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb", Obs: reg})
	cachePaths(t, m, "$.turnover")

	sql := "SELECT SUM(get_json_object(sale_logs, '$.turnover')) AS s FROM mydb.t"
	plan, _, err := f.engine.PlanOnly(sql)
	if err != nil {
		t.Fatal(err)
	}

	// Next cycle retires the generation the plan references; the one after
	// (here: an explicit DropRetired) deletes its tables mid-"flight".
	cachePaths(t, m, "$.turnover")
	if n := m.Cacher.DropRetired(); n != 1 {
		t.Fatalf("DropRetired = %d, want 1", n)
	}

	rs, qm, err := f.engine.ExecuteCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].F != 4960 { // sum of day*10, 1..31
		t.Fatalf("result = %+v", rs.Rows)
	}
	s := reg.Snapshot()
	if got := s.Counter("combiner_opens_total", obs.L{K: "mode", V: "fallback-retired"}); got != 3 {
		t.Errorf("fallback-retired opens = %d, want 3 (one per split)", got)
	}
	if got := s.Counter("combiner_fallback_values_total"); got != 31 {
		t.Errorf("fallback values = %d, want 31", got)
	}
	if qm.CacheMisses.Load() != 31 || qm.Parse.Docs.Load() != 31 {
		t.Errorf("metrics: misses=%d parsed=%d, want 31/31",
			qm.CacheMisses.Load(), qm.Parse.Docs.Load())
	}

	// A freshly planned query uses the live generation: combined, no misses.
	rs2, qm2, err := f.engine.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Rows[0][0].F != 4960 {
		t.Fatalf("combined result = %+v", rs2.Rows)
	}
	if qm2.CacheMisses.Load() != 0 || qm2.CacheValuesRead.Load() != 31 {
		t.Errorf("combined metrics: misses=%d values=%d",
			qm2.CacheMisses.Load(), qm2.CacheValuesRead.Load())
	}
	s = reg.Snapshot()
	if got := s.Counter("combiner_opens_total", obs.L{K: "mode", V: "combined"}); got != 3 {
		t.Errorf("combined opens = %d, want 3", got)
	}
	if got := s.Counter("combiner_rows_stitched_total"); got != 31 {
		t.Errorf("rows stitched = %d, want 31", got)
	}
}

// TestMidnightCycleStages checks that every cycle report carries all five
// stages in order, including cycles that exit early with no history.
func TestMidnightCycleStages(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})

	// No collected history: early exit must still report all stages.
	rep, err := m.RunMidnightCycleCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != len(CycleStageNames) {
		t.Fatalf("stages = %d, want %d", len(rep.Stages), len(CycleStageNames))
	}
	for i, s := range rep.Stages {
		if s.Name != CycleStageNames[i] {
			t.Errorf("stage[%d] = %q, want %q", i, s.Name, CycleStageNames[i])
		}
	}
	if sum := rep.StageSummary(); !strings.Contains(sum, "retire") || !strings.Contains(sum, "populate") {
		t.Errorf("StageSummary = %q", sum)
	}

	// With history: the full pipeline runs and counts work per stage.
	for day := 0; day < 28; day++ {
		for i := 0; i < 3; i++ {
			if _, _, err := m.QueryCtx(context.Background(),
				"SELECT get_json_object(sale_logs, '$.turnover') FROM mydb.t"); err != nil {
				t.Fatal(err)
			}
		}
		f.clock.Advance(24 * time.Hour)
	}
	m.AdvanceToMidnight()
	rep2, err := m.RunMidnightCycleCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Stages) != len(CycleStageNames) {
		t.Fatalf("stages = %d", len(rep2.Stages))
	}
	if rep2.Stages[1].Items == 0 {
		t.Error("collect stage observed no paths")
	}
	if rep2.CandidateMPJP > 0 && rep2.Stages[4].Items != rep2.Cache.PathsCached {
		t.Errorf("populate items = %d, PathsCached = %d",
			rep2.Stages[4].Items, rep2.Cache.PathsCached)
	}
}
