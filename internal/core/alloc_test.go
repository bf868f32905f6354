package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// cachedTable builds mydb.t with splits part files of rowsPerSplit rows
// (row groups of 500), caches two paths of it, and returns the factory of a
// cache-only scan over them with the number of rows it must return.
func cachedTable(t *testing.T, splits, rowsPerSplit int) (*CombinedScanFactory, int) {
	t.Helper()
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	wh := warehouse.New(dfs.New(dfs.WithClock(clock)), warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 500}))
	wh.CreateDatabase("mydb")
	schema := orc.Schema{Columns: []orc.Column{{Name: "sale_logs", Type: datum.TypeString}}}
	if err := wh.CreateTable("mydb", "t", schema); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < splits; s++ {
		rows := make([][]datum.Datum, rowsPerSplit)
		for i := range rows {
			id := s*rowsPerSplit + i
			rows[i] = []datum.Datum{datum.Str(fmt.Sprintf(
				`{"item_name":"item-%05d","turnover":%d,"region":"region-%d"}`, id, id*10, id%7))}
		}
		if _, err := wh.AppendRows("mydb", "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	engine := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("mydb"))
	m := New(engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.item_name", "$.region")
	cacheTable := m.Cacher.ActiveCacheTable("mydb", "t")
	info, err := wh.Table(CacheDB, cacheTable)
	if err != nil {
		t.Fatal(err)
	}
	var cacheCols []string
	var rowCols []sqlengine.RowCol
	for _, c := range info.Schema.Columns {
		cacheCols = append(cacheCols, c.Name)
		rowCols = append(rowCols, sqlengine.RowCol{Name: c.Name, Type: c.Type})
	}
	return NewCombinedScanFactory(wh, "mydb", "t", nil, nil, cacheTable, cacheCols, nil, nil, false,
		sqlengine.RowSchema{Cols: rowCols}), splits * rowsPerSplit
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
				bs, ok := src.(sqlengine.BatchSource)
				if !ok {
					t.Fatalf("split source %T is not a BatchSource", src)
				}
				if _, ok := src.(*combinedRowSource); !ok {
					t.Fatalf("split served by %T, want the combined source", src)
				}
				for {
					n, err := bs.NextBatch(batch)
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
	if perSplit := large / splits; perSplit > 32 {
		// 24 when written: two Table lookups, the file view and reader, the
		// cursor's five, the source.
		t.Errorf("cache-only scan allocates %v times per split, want at most 32", perSplit)
	}
}
