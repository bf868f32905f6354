package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
	"repro/internal/warehouse"
)

// prefixParts are the row counts of the prefix oracle's parts: uneven, so a
// LIMIT ends inside a split, on a split boundary and past the table.
var prefixParts = []int{9, 4, 13, 6, 11}

// prefixBed loads db.t (id, doc) over prefixParts, ids counting from 0 in
// part order and each document {"a": id, "b": "g<id%3>"}.
func prefixBed(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	bed := testbed.New(testbed.Config{RowGroupRows: 4})
	table := testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc}
	id := 0
	for _, n := range prefixParts {
		var rows [][]datum.Datum
		for i := 0; i < n; i++ {
			rows = append(rows, []datum.Datum{datum.Int(int64(id)), datum.Str(fmt.Sprintf(`{"a":%d,"b":"g%d"}`, id, id%3))})
			id++
		}
		table.Parts = append(table.Parts, rows)
	}
	if err := bed.Load(time.Hour, table); err != nil {
		t.Fatal(err)
	}
	return bed.WH
}

// prefixWork is what an unordered LIMIT may read: the splits it opens, the
// rows it scans.
type prefixWork struct{ splits, rows int }

// prefixExpect is the work a LIMIT n does over prefixBed's table at
// parallelism one, walked as the scan walks it: split by split, each read in
// batches of batchSize over its row groups of four, until n rows are out.
// Without a WHERE a batch holds no more rows than are still missing; with
// one, every third row (id%3 == 1) passes and the scan stops at the end of
// the batch in which the n-th does. prunes says the lane skips a row group in
// which no row passes.
func prefixExpect(n int, where, prunes bool, batchSize int) prefixWork {
	var w prefixWork
	out, first := 0, 0
	passes := func(id int) bool { return !where || id%3 == 1 }
	for _, size := range prefixParts {
		if out >= n {
			break
		}
		w.splits++
		var read []int // the ids the split's cursor returns
		for g := first; g < first+size; g += 4 {
			group := make([]int, 0, 4)
			for id := g; id < min(g+4, first+size); id++ {
				group = append(group, id)
			}
			if prunes && !slices.ContainsFunc(group, passes) {
				continue
			}
			read = append(read, group...)
		}
		for b := 0; b < len(read) && out < n; b += batchSize {
			batch := read[b:min(b+batchSize, len(read))]
			if !where {
				batch = batch[:min(len(batch), n-out)]
			}
			w.rows += len(batch)
			for _, id := range batch {
				if passes(id) && out < n {
					out++
				}
			}
		}
		first += size
	}
	return w
}

// TestUnorderedLimitReturnsTheSplitPrefix is the contract of an unordered
// LIMIT: it returns the first n rows of the unlimited answer in split order,
// on every lane — raw, fully cached, partially cached (combined) and a shared
// pass on a contended fingerprint — at batch sizes 1 and the default, with
// and without a WHERE. The work is pinned too: the splits a LIMIT opens, the
// rows it scans and the documents it parses stop at the rows it returns
// (with a WHERE, at the end of the batch in which the last one passes).
func TestUnorderedLimitReturnsTheSplitPrefix(t *testing.T) {
	ctx := context.Background()
	const (
		project = `SELECT id, get_json_object(doc, '$.a') a, get_json_object(doc, '$.b') b FROM db.t`
		where   = ` WHERE get_json_object(doc, '$.b') = 'g1'`
	)
	limits := []int{0, 1, 7, prefixParts[0], prefixParts[0] + 1, 50}
	lanes := []struct {
		name   string
		cached []string
		// parses reports whether the lane parses the documents it scans;
		// prunes, whether it skips the row groups the WHERE rules out (the
		// cache's statistics on $.b).
		parses, prunes bool
	}{
		{"raw", nil, true, false},
		{"cached", []string{"$.a", "$.b"}, false, true},
		{"combined", []string{"$.a"}, true, false},
	}
	for _, batchSize := range []int{1, sqlengine.DefaultBatchSize} {
		for _, filtered := range []bool{false, true} {
			base := project
			if filtered {
				base += where
			}
			ref, err := referenceQuery(prefixBed(t), "db", base)
			if err != nil {
				t.Fatal(err)
			}
			// prefix checks rows against the first n rows of the reference's
			// unlimited answer, which it reads part by part in file order.
			prefix := func(t *testing.T, lane string, n int, rs *sqlengine.ResultSet) {
				t.Helper()
				want := renderAll(ref.rows[:min(n, len(ref.rows))])
				if got := renderAll(rs.Rows); !slices.Equal(got, want) {
					t.Errorf("%s LIMIT %d:\n%s\nwant the split-order prefix:\n%s", lane, n, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			}
			name := fmt.Sprintf("batch%d/where=%v", batchSize, filtered)
			t.Run(name, func(t *testing.T) {
				for _, lane := range lanes {
					m := New(sqlengine.NewEngine(prefixBed(t), sqlengine.WithDefaultDB("db"),
						sqlengine.WithParallelism(1), sqlengine.WithBatchSize(batchSize)),
						Config{BudgetBytes: 1 << 30, DefaultDB: "db"})
					cachePrefixPaths(t, m, lane.cached)
					for _, n := range limits {
						sql := fmt.Sprintf("%s LIMIT %d", base, n)
						_, rs, met, err := m.ExplainCtx(ctx, sql)
						if err != nil {
							t.Fatalf("%s %s: %v", lane.name, sql, err)
						}
						prefix(t, lane.name, n, rs)
						want := prefixExpect(n, filtered, lane.prunes, batchSize)
						docs := 0
						if lane.parses {
							docs = want.rows
						}
						got := prefixWork{openedSplits(met), int(met.RowsScanned.Load())}
						if got != want || met.Parse.Docs.Load() != int64(docs) {
							t.Errorf("%s LIMIT %d opened %d splits, scanned %d rows and parsed %d documents; want %d, %d and %d",
								lane.name, n, got.splits, got.rows, met.Parse.Docs.Load(), want.splits, want.rows, docs)
						}
					}
				}

				// A shared pair: both queries read one pass, and each
				// returns its own prefix.
				m := New(sqlengine.NewEngine(prefixBed(t), sqlengine.WithDefaultDB("db"),
					sqlengine.WithParallelism(1), sqlengine.WithBatchSize(batchSize)),
					Config{BudgetBytes: 1 << 30, DefaultDB: "db", ScanShareWindow: 250 * time.Millisecond, ScanShareMaxQueries: 2})
				for i := 0; i < 2; i++ { // two close arrivals contend the fingerprint
					if _, _, err := m.QueryCtx(ctx, base); err != nil {
						t.Fatal(err)
					}
				}
				before := sqlengine.OutstandingBatches()
				for _, n := range limits[1:] { // LIMIT 0 reads no split, so it shares none
					sql := fmt.Sprintf("%s LIMIT %d", base, n)
					var wg sync.WaitGroup
					rss := make([]*sqlengine.ResultSet, 2)
					mets := make([]*sqlengine.Metrics, 2)
					errs := make([]error, 2)
					for i := range rss {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							rss[i], mets[i], errs[i] = m.QueryCtx(ctx, sql)
						}(i)
					}
					wg.Wait()
					for i := range rss {
						if errs[i] != nil {
							t.Fatalf("shared %s: %v", sql, errs[i])
						}
						if mets[i].ScanModes()&sqlengine.ScanShared == 0 {
							t.Errorf("shared %s: query %d ran unshared", sql, i)
						}
						prefix(t, "shared", n, rss[i])
					}
				}
				waitBatchBaseline(t, before)
			})
		}
	}
}

// cachePrefixPaths caches paths of db.t's doc column.
func cachePrefixPaths(t *testing.T, m *Maxson, paths []string) {
	t.Helper()
	if len(paths) == 0 {
		return
	}
	var profiles []*PathProfile
	for _, p := range paths {
		profiles = append(profiles, &PathProfile{Key: pathkey.Key{DB: "db", Table: "t", Column: "doc", Path: p}, TotalValueBytes: 1})
	}
	if _, err := m.CacheSelected(context.Background(), profiles); err != nil {
		t.Fatal(err)
	}
}

// openedSplits counts the splits a traced query opened: the split spans that
// name the source that served them.
func openedSplits(met *sqlengine.Metrics) int {
	n := 0
	for _, c := range met.Trace.Children() {
		if !strings.HasPrefix(c.Name, "scan ") {
			continue
		}
		for _, sp := range c.Children() {
			if src := sp.Attr("source"); src != "" && src != "skipped by limit" {
				n++
			}
		}
	}
	return n
}
