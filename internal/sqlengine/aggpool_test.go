package sqlengine

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datum"
)

// crossPlanQueries walk pooled tables across shapes: GROUP BY → no GROUP BY
// → more keys and more MIN/MAX slots → fewer → a global aggregate over no rows.
// The MIN/MAX arguments are document strings and dates, i.e. views of the part
// files the tables must not keep.
var crossPlanQueries = []string{
	`SELECT date, COUNT(*), MAX(sale_logs) FROM mydb.t GROUP BY date`,
	`SELECT COUNT(*), SUM(get_json_object(sale_logs, '$.turnover')), MIN(date), MAX(date) FROM mydb.t`,
	`SELECT date, mall_id, get_json_object(sale_logs, '$.sale_count') sc, MIN(sale_logs), MAX(sale_logs), MIN(date),
	        MAX(get_json_object(sale_logs, '$.item_name'))
	 FROM mydb.t GROUP BY date, mall_id, get_json_object(sale_logs, '$.sale_count')`,
	`SELECT mall_id, COUNT(*), SUM(get_json_object(sale_logs, '$.price')) FROM mydb.t GROUP BY mall_id`,
	`SELECT COUNT(*), MIN(sale_logs) FROM mydb.t WHERE date > '20191231'`,
}

// freshGolden renders what a new engine answers to each query with tables new
// from the pool's New: two collections empty a sync.Pool.
func freshGolden(t *testing.T, queries []string) []string {
	t.Helper()
	golden := make([]string, len(queries))
	for i, sql := range queries {
		runtime.GC()
		runtime.GC()
		golden[i] = renderRows(mustQuery(t, newTestEngine(t, WithParallelism(1)), sql).Rows, false)
	}
	return golden
}

// TestPooledAggTablesHoldNoViews takes tables from the pool after grouped
// queries over part files: each is empty, with its datum slabs and names zero
// up to capacity, so no pooled table pins a part file (DESIGN.md,
// "Storage-read ownership").
func TestPooledAggTablesHoldNoViews(t *testing.T) {
	e := newTestEngine(t, WithParallelism(1))
	sql := crossPlanQueries[2]
	plan, _, err := e.PlanOnly(sql)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	// sync.Pool may drop what it is given (always under -race, now and then),
	// so a few rounds make sure some table comes back used.
	for round := 0; round < 10 && reused == 0; round++ {
		mustQuery(t, e, sql)
		var taken []*aggTable
		for i := 0; i < 8; i++ {
			tab := getAggTable(plan)
			taken = append(taken, tab)
			if cap(tab.names) > 0 {
				reused++
			}
			if len(tab.index) != 0 || len(tab.names) != 0 || len(tab.keys) != 0 || len(tab.cells) != 0 || len(tab.vals) != 0 {
				t.Fatalf("pooled table not empty: %d indexed, %d names, %d keys, %d cells, %d vals",
					len(tab.index), len(tab.names), len(tab.keys), len(tab.cells), len(tab.vals))
			}
			for j, name := range tab.names[:cap(tab.names)] {
				if name != "" {
					t.Fatalf("pooled table keeps name %d: %q", j, name)
				}
			}
			for _, slab := range [][]datum.Datum{tab.keys, tab.vals} {
				for j, d := range slab[:cap(slab)] {
					if d != (datum.Datum{}) {
						t.Fatalf("pooled table keeps datum %d: %+v", j, d)
					}
				}
			}
		}
		for _, tab := range taken {
			putAggTable(tab)
		}
	}
	if reused == 0 {
		t.Fatal("no used table came back from the pool in ten grouped queries")
	}
}

// TestPooledAggTablesCrossPlans runs the shapes back to back, twice, on one
// engine: every result is byte-equal (float bits included) to a fresh
// engine's, whatever plan the table it drew served before.
func TestPooledAggTablesCrossPlans(t *testing.T) {
	golden := freshGolden(t, crossPlanQueries)
	e := newTestEngine(t, WithParallelism(1))
	for pass := 0; pass < 2; pass++ {
		for i, sql := range crossPlanQueries {
			if got := renderRows(mustQuery(t, e, sql).Rows, false); got != golden[i] {
				t.Fatalf("pass %d, %s:\n got:\n%s\nfresh engine:\n%s", pass, sql, got, golden[i])
			}
		}
	}
}

// panicAfterRowsFactory serves two splits of ids 100-107; split 1 panics once
// its first batch is aggregated, so the panicking partition's table (and its
// sibling's) hold groups when the query fails.
type panicAfterRowsFactory struct{ schema RowSchema }

func (f *panicAfterRowsFactory) NumSplits() (int, error)    { return 2, nil }
func (f *panicAfterRowsFactory) Schema() (RowSchema, error) { return f.schema, nil }
func (f *panicAfterRowsFactory) Open(split int, m *Metrics, _ BatchSource) (BatchSource, error) {
	return &panicAfterRowsSource{split: split}, nil
}

type panicAfterRowsSource struct{ split, calls int }

func (s *panicAfterRowsSource) NextBatch(b *RowBatch) (int, error) {
	s.calls++
	switch {
	case s.calls == 1:
		n := min(8, b.Capacity())
		for i := 0; i < n; i++ {
			b.Cols[0][i] = datum.Int(int64(100 + i))
		}
		return n, nil
	case s.split == 1:
		panic("synthetic failure after a batch")
	}
	return 0, nil
}

// TestPooledAggTablesSurvivePanickedPartition fails a grouped query with a
// panicking partition, before its first row and after some, and requires the
// next clean query on the engine to return its own rows.
func TestPooledAggTablesSurvivePanickedPartition(t *testing.T) {
	e := newCancelTestEngine(t, WithParallelism(2))
	const sql = `SELECT id, COUNT(*) c, MAX(id) m FROM db.t GROUP BY id`
	want := renderRows(mustQuery(t, e, sql).Rows, false)
	for _, factory := range []func(RowSchema) ScanSourceFactory{
		func(s RowSchema) ScanSourceFactory { return &panickingFactory{schema: s} },
		func(s RowSchema) ScanSourceFactory { return &panicAfterRowsFactory{schema: s} },
	} {
		plan, _, err := e.PlanOnly(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan.Scan.Factory = factory(plan.Scan.Schema())
		if _, _, err := e.ExecuteCtx(context.Background(), plan); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%T: want a panicked split's error, got %v", plan.Scan.Factory, err)
		}
		if got := renderRows(mustQuery(t, e, sql).Rows, false); got != want {
			t.Fatalf("after %T's panic:\n got:\n%s\nwant:\n%s", plan.Scan.Factory, got, want)
		}
	}
}

// TestPooledAggTablesConcurrentQueries runs four goroutines of the mixed
// shapes on one engine, whose partitions draw from and return to the one pool
// at once, against a sequential golden. CI runs it with -race -count=5.
func TestPooledAggTablesConcurrentQueries(t *testing.T) {
	e := newTestEngine(t, WithParallelism(3))
	golden := make([]string, len(crossPlanQueries))
	for i, sql := range crossPlanQueries {
		golden[i] = renderRows(mustQuery(t, e, sql).Rows, false)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := (w + i) % len(crossPlanQueries)
				rs, _, err := e.QueryCtx(context.Background(), crossPlanQueries[q])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got := renderRows(rs.Rows, false); got != golden[q] {
					t.Errorf("worker %d, %s:\n got:\n%s\nsequential:\n%s", w, crossPlanQueries[q], got, golden[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
