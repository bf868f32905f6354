package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/jsonpath"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// saleDocs builds n single-column rows of sale-log documents numbered from.
func saleDocs(from, n int) [][]datum.Datum {
	rows := make([][]datum.Datum, n)
	for i := range rows {
		id := from + i
		rows[i] = []datum.Datum{datum.Str(fmt.Sprintf(
			`{"item_name":"item-%05d","turnover":%d,"region":"region-%d"}`, id, id*10, id%7))}
	}
	return rows
}

// saleTable builds mydb.t with splits part files of rowsPerSplit rows (row
// groups of 500).
func saleTable(t *testing.T, splits, rowsPerSplit int) *warehouse.Warehouse {
	t.Helper()
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	wh := warehouse.New(dfs.New(), warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 500}))
	wh.CreateDatabase("mydb")
	schema := orc.Schema{Columns: []orc.Column{{Name: "sale_logs", Type: datum.TypeString}}}
	if err := wh.CreateTable("mydb", "t", schema); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < splits; s++ {
		if _, err := wh.AppendRows("mydb", "t", saleDocs(s*rowsPerSplit, rowsPerSplit)); err != nil {
			t.Fatal(err)
		}
	}
	return wh
}

// cachedTable caches two paths of a saleTable and returns the factory of a
// cache-only scan over them with the number of rows it must return.
func cachedTable(t *testing.T, splits, rowsPerSplit int) (*CombinedScanFactory, int) {
	t.Helper()
	wh := saleTable(t, splits, rowsPerSplit)
	engine := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("mydb"))
	m := New(engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.item_name", "$.region")
	manifest := m.Registry.generation()["mydb.t"]
	info, err := wh.Table(CacheDB, manifest.CacheTable)
	if err != nil {
		t.Fatal(err)
	}
	var cacheCols []string
	var rowCols []sqlengine.RowCol
	for _, c := range info.Schema.Columns {
		cacheCols = append(cacheCols, c.Name)
		rowCols = append(rowCols, sqlengine.RowCol{Name: c.Name, Type: c.Type})
	}
	return NewCombinedScanFactory(wh, "mydb", "t", nil, nil, manifest, cacheCols, nil, nil, false,
		sqlengine.RowSchema{Cols: rowCols}, nil), splits * rowsPerSplit
}

// TestCacheOnlyScanAllocatesPerSplit is the paper's payoff case at the
// allocation level: a scan served entirely from a populated cache table
// costs the same number of allocations whether a split holds 300 rows or
// 6,000 — opening a split allocates (file view, cursor, source), reading
// its rows into the executor's batch does not.
func TestCacheOnlyScanAllocatesPerSplit(t *testing.T) {
	const splits = 3
	scanAllocs := func(rowsPerSplit int) float64 {
		f, wantRows := cachedTable(t, splits, rowsPerSplit)
		batch := sqlengine.NewRowBatch(2, sqlengine.DefaultBatchSize)
		return testing.AllocsPerRun(10, func() {
			rows := 0
			for split := 0; split < splits; split++ {
				src, err := f.Open(split, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := src.(*combinedRowSource); !ok {
					t.Fatalf("split served by %T, want the combined source", src)
				}
				for {
					n, err := src.NextBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					rows += n
				}
			}
			if rows != wantRows {
				t.Fatalf("scan returned %d rows, want %d", rows, wantRows)
			}
		})
	}
	small, large := scanAllocs(300), scanAllocs(6000)
	if small != large {
		t.Errorf("cache-only scan allocates %v times over %d rows and %v over %d: it should depend on the splits only",
			small, splits*300, large, splits*6000)
	}
	perSplit := large / splits
	t.Logf("%v allocations per split", perSplit)
	if perSplit > 10 {
		// 10 since PR 25: the file view and reader, the cursor's five, the
		// source, which holds the cursor's read stats in its meter (11 while
		// they were an allocation of their own). The two Table lookups an open
		// makes allocate nothing while the file system is unchanged; with a
		// listing each they made it 24.
		t.Errorf("cache-only scan allocates %v times per split, want at most 10", perSplit)
	}
}

// TestUncoveredScanAllocatesPerSplit is the fallback lane at the allocation
// level: a split the cache does not cover opens through the engine's
// extracting split reader, and reading it costs the same number of
// allocations whether it holds 300 rows or 6,000. Opening allocates (file
// view, cursor, extractors, document scratch), extracting two paths from
// every document into the executor's batch does not.
func TestUncoveredScanAllocatesPerSplit(t *testing.T) {
	const splits = 3
	paths := []string{"$.item_name", "$.region"}
	scanAllocs := func(rowsPerSplit int) float64 {
		wh := saleTable(t, splits, rowsPerSplit)
		var fallbacks []sqlengine.Extraction
		var cacheCols []string
		var rowCols []sqlengine.RowCol
		for _, p := range paths {
			col := pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: p}.Sanitized()
			fallbacks = append(fallbacks, sqlengine.Extraction{Column: "sale_logs", Path: jsonpath.MustCompile(p)})
			cacheCols = append(cacheCols, col)
			rowCols = append(rowCols, sqlengine.RowCol{Name: col, Type: datum.TypeString})
		}
		// An empty manifest covers no split.
		f := NewCombinedScanFactory(wh, "mydb", "t", nil, nil, &Manifest{}, cacheCols, nil, fallbacks, false,
			sqlengine.RowSchema{Cols: rowCols}, nil)
		batch := sqlengine.NewRowBatch(len(paths), sqlengine.DefaultBatchSize)
		var m sqlengine.Metrics
		allocs := testing.AllocsPerRun(10, func() {
			rows := 0
			for split := 0; split < splits; split++ {
				src, err := f.Open(split, &m)
				if err != nil {
					t.Fatal(err)
				}
				for {
					n, err := src.NextBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					rows += n
				}
			}
			if rows != splits*rowsPerSplit {
				t.Fatalf("scan returned %d rows, want %d", rows, splits*rowsPerSplit)
			}
		})
		if m.ScanModes() != sqlengine.ScanFallbackUncovered || m.Parse.Docs.Load() == 0 {
			t.Fatalf("splits served in modes %b with %d documents parsed, want fallback-uncovered extraction",
				m.ScanModes(), m.Parse.Docs.Load())
		}
		return allocs
	}
	small, large := scanAllocs(300), scanAllocs(6000)
	if small != large {
		t.Errorf("an uncovered scan allocates %v times over %d rows and %v over %d: it should depend on the splits only",
			small, splits*300, large, splits*6000)
	}
	perSplit := large / splits
	t.Logf("%v allocations per split", perSplit)
	if perSplit > 16 {
		// 16 when written: the file view, reader and cursor (seven, as in the
		// cache-only scan), the source with its decode vectors and document
		// scratch, the split's extractor with its first arena, and the
		// cache-miss counter around the source. The fallback source this
		// replaced compiled its path set again for every split.
		t.Errorf("an uncovered scan allocates %v times per split, want at most 16", perSplit)
	}
}

// TestPopulateAllocations pins what a cycle allocates. Extracting a split
// costs one string per extracted value and nothing else per row (no row
// slice: values go from the extractor into one column-major batch the writer
// reads); a split carried from the previous generation costs the same few
// allocations whether it holds 300 rows or 6,000.
func TestPopulateAllocations(t *testing.T) {
	const splits = 3
	paths := []string{"$.item_name", "$.region"}
	fromScratch := func(rowsPerSplit int) float64 {
		engine := sqlengine.NewEngine(saleTable(t, splits, rowsPerSplit), sqlengine.WithDefaultDB("mydb"))
		return testing.AllocsPerRun(3, func() {
			cachePaths(t, New(engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"}), paths...)
		})
	}
	small, large := fromScratch(300), fromScratch(6000)
	perRow := (large - small) / (splits * (6000 - 300))
	if limit := float64(len(paths)) + 0.5; perRow > limit {
		// 2.1 when written; 7.3 with a []datum.Datum per row and a failed
		// ParseFloat per non-numeric value.
		t.Errorf("a from-scratch populate allocates %.2f times per row for %d paths, want at most %.1f", perRow, len(paths), limit)
	}

	// One new split of 100 rows a night, everything else carried.
	oneNewSplit := func(rowsPerSplit int) float64 {
		wh := saleTable(t, splits, rowsPerSplit)
		m := New(sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("mydb")), Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
		cachePaths(t, m, paths...)
		day := saleDocs(1<<20, 100)
		return testing.AllocsPerRun(3, func() {
			if _, err := wh.AppendRows("mydb", "t", day); err != nil {
				t.Fatal(err)
			}
			cachePaths(t, m, paths...)
		})
	}
	small, large = oneNewSplit(300), oneNewSplit(6000)
	if d := large - small; d > 8 || d < -8 {
		// Map growth moves the average of a few runs by one or two.
		t.Errorf("a cycle with one new split allocates %v times beside 300-row carried splits and %v beside 6,000-row ones", small, large)
	}
	if large > 1000 {
		// 610 when written: the 100 new rows' values, their two part files, and
		// a link, a table lookup and a registry entry per carried split.
		t.Errorf("a cycle with one new 100-row split allocates %v times, want at most 1000", large)
	}
}

// TestModifyMakesNoRegistryLookup pins where the Value Combiner's counters
// are resolved: once, in NewPlanner. Rewriting a fully cached plan builds a
// factory around those handles; it does not render a series key (a sort and
// a string build per labelled counter) for every scan of every query.
func TestModifyMakesNoRegistryLookup(t *testing.T) {
	engine := newFixture(t).engine
	m := New(engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.item_name", "$.turnover")

	const runs = 10
	type planned struct {
		plan *sqlengine.PhysicalPlan
		stmt *sqlengine.SelectStmt
	}
	var plans []planned
	for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
		stmt, err := sqlengine.Parse(`SELECT get_json_object(sale_logs, '$.item_name') n FROM t WHERE get_json_object(sale_logs, '$.turnover') = '30'`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.Plan(stmt)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, planned{plan, stmt})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		p := plans[next]
		next++
		if replaced, err := m.Planner.Modify(p.plan, p.stmt); err != nil || replaced == 0 {
			t.Fatalf("Modify replaced %d expressions, err %v: the plan is not served from the cache", replaced, err)
		}
	})
	if allocs > 40 {
		// 33 when written; 55 when every modified scan looked its seven
		// counters up and rendered five labelled series keys to do it.
		t.Errorf("Modify allocates %v times on a fully cached plan, want at most 40", allocs)
	}
}
