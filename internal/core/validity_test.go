package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/fault"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// TestSplitValidityEquivalence is the gate on per-split validity: over every
// history a raw table can have had since its cache was populated, a query
// through Maxson returns exactly the reference's rows (referenceQuery, which
// shares no executor code with the engine), and reads cache
// values exactly when some split is still at the version the manifest filed
// it under — one value per cached path named and matched row when no scan is
// shared. An append is such a split once ingest has cached it; one that lands
// while a cycle runs, or while the cache table is quarantined, is not. With
// sharing on, two queries asking different subsets of the cached paths also
// run together, through one pass over their union.
func TestSplitValidityEquivalence(t *testing.T) {
	sel := selection("$.item_id", "$.turnover")
	// Each history mutates the fixture around a populate of sel on m and
	// returns the node to query (built like m, with or without scan
	// sharing); matched is how many rows of the table sit in splits the
	// manifest still serves.
	histories := []struct {
		name    string
		run     func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson
		matched int64
	}{
		{"fresh", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			return m
		}, 31},
		{"appended after populate", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			mustAppend(f, saleRows(5, 7))
			return m
		}, 36},
		{"append during populate", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			appendDuringPopulate(t, f, m, sel, saleRows(5, 7))
			return m
		}, 31},
		{"append while quarantined", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			m.Registry.Quarantine(m.Cacher.ActiveCacheTable("mydb", "t"))
			mustAppend(f, saleRows(5, 7))
			return m
		}, 0},
		{"one split rewritten", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			mustRewrite(t, f, 1, saleRows(9, 8))
			return m
		}, 21},
		{"every split rewritten", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			for i := 0; i < 3; i++ {
				mustRewrite(t, f, i, saleRows(4+i, 10+i))
			}
			return m
		}, 0},
		{"dropped and recreated", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			before := rawParts(t, f)
			info, _ := f.wh.Table("mydb", "t")
			if err := f.wh.DropTable("mydb", "t"); err != nil {
				t.Fatal(err)
			}
			if err := f.wh.CreateTable("mydb", "t", info.Schema); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				mustAppend(f, saleRows(10, i+1))
			}
			if after := rawParts(t, f); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("recreated parts %v, want the old names %v", after, before)
			}
			return m
		}, 0},
		{"one split populated from a corrupted read", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			part1 := rawParts(t, f)[1]
			defer f.wh.FS().SetInjector(nil)
			for seed := int64(1); seed <= 200; seed++ {
				inj := fault.New(seed)
				inj.Add(fault.Rule{Pattern: part1, Op: fault.OpRead, Kind: fault.KindCorrupt})
				f.wh.FS().SetInjector(inj)
				if _, err := m.CacheSelected(context.Background(), sel); err == nil {
					return m
				}
			}
			t.Fatal("no seed produced a corrupt read that still decodes")
			return nil
		}, 21},
		{"rewrite during populate", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			raw := rawParts(t, f)
			inj := fault.New(1)
			inj.Add(fault.Rule{Pattern: raw[1], Op: fault.OpOpen, Kind: fault.KindLatency, Latency: 1, FailN: 1})
			inj.SetSleep(func(time.Duration) {
				if err := f.wh.RewriteFile("mydb", "t", raw[0], saleRows(10, 9)); err != nil {
					t.Error(err)
				}
			})
			f.wh.FS().SetInjector(inj)
			defer f.wh.FS().SetInjector(nil)
			mustPopulate(t, m, sel)
			if inj.Injected() != 1 {
				t.Fatalf("the rewrite fired %d times, want once", inj.Injected())
			}
			return m
		}, 21},
		{"SaveState then LoadState on a new node", func(t *testing.T, f *fixture, m *Maxson, share bool) *Maxson {
			mustPopulate(t, m, sel)
			if err := m.SaveState(); err != nil {
				t.Fatal(err)
			}
			restarted := validityNode(f, share)
			if err := restarted.LoadState(); err != nil {
				t.Fatal(err)
			}
			return restarted
		}, 31},
	}
	selections := []struct {
		name   string
		sql    string
		cached int64 // cached paths the query names
	}{
		// The first two read no raw column where the cache serves: a stale
		// split would reach the rows through the cache part alone.
		{"one path", `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY tv`, 1},
		{"all paths", `SELECT get_json_object(sale_logs, '$.item_id') id, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY id, tv`, 2},
		{"cached beside uncached", `SELECT date, get_json_object(sale_logs, '$.turnover') tv, get_json_object(sale_logs, '$.item_name') n FROM mydb.t ORDER BY date`, 1},
	}
	coalesced := int64(0)
	for _, h := range histories {
		for _, share := range []bool{false, true} {
			mode := "unshared"
			if share {
				mode = "shared"
			}
			t.Run(h.name+"/"+mode, func(t *testing.T) {
				f := newFixture(t)
				node := h.run(t, f, validityNode(f, share), share)
				for _, s := range selections {
					want, err := referenceQuery(f.wh, "mydb", s.sql)
					if err != nil {
						t.Fatal(err)
					}
					if !share {
						got, met, err := node.QueryCtx(context.Background(), s.sql)
						if err != nil {
							t.Fatal(err)
						}
						if diff := want.match(got.Columns, got.Rows); diff != "" {
							t.Errorf("%s: rows differ from the reference: %s", s.name, diff)
						}
						if values := met.CacheValuesRead.Load(); values != s.cached*h.matched {
							t.Errorf("%s: read %d cache values, want %d", s.name, values, s.cached*h.matched)
						}
						continue
					}
					// Two queries a window apart mark the fingerprint contended,
					// so the burst after them shares one pass; whichever query
					// claims the pass carries its cache reads.
					values := int64(0)
					for _, q := range validityBurst(t, node, s.sql, want, 2, false) {
						values += q
					}
					for _, q := range validityBurst(t, node, s.sql, want, 3, true) {
						values += q
					}
					if (values > 0) != (h.matched > 0) {
						t.Errorf("%s: %d cache values read, with %d rows in splits still at their cached versions", s.name, values, h.matched)
					}
				}
				if share {
					overlappingBurst(t, node, f.wh, selections[0].sql, selections[1].sql)
					coalesced += node.Obs().Counter("scanshare_queries_coalesced_total").Value()
				}
			})
		}
	}
	if coalesced == 0 {
		t.Error("no burst shared a scan; the shared half of the table tested nothing")
	}
}

// overlappingBurst runs sub and super — two statements over one scan that
// read no raw column and ask a subset and all of the cached paths — together,
// sub first, once sub twice in a row has made their shared fingerprint
// contended: the pass they share reads the union of their cache columns, and
// each returns the reference's rows over wh.
func overlappingBurst(t *testing.T, m *Maxson, wh *warehouse.Warehouse, sub, super string) {
	t.Helper()
	sqls := []string{sub, super}
	want := make([]*refResult, len(sqls))
	for i, sql := range sqls {
		ref, err := referenceQuery(wh, "mydb", sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}
	validityBurst(t, m, sub, want[0], 2, false)
	before := m.Obs().Counter("scanshare_groups_total").Value()
	var wg sync.WaitGroup
	for i := range sqls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			validityBurst(t, m, sqls[i], want[i], 1, false)
		}(i)
		// The subset query opens the group, so the pass is built from its
		// factory and has to add the other's cache column to it.
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	if n := m.Obs().Counter("scanshare_groups_total").Value() - before; n != 1 {
		t.Errorf("the overlapping pair ran in %d shared groups, want 1", n)
	}
}

// validityNode builds a Maxson over the fixture's warehouse on an engine of
// its own, with the shared-scan scheduler when share is set.
func validityNode(f *fixture, share bool) *Maxson {
	cfg := Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"}
	if share {
		cfg.ScanShareWindow = 100 * time.Millisecond
	}
	e := sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb"), sqlengine.WithParallelism(2))
	return New(e, cfg)
}

// validityBurst runs sql n times, one after another or all at once, checks
// every result against the reference's want, and returns each query's cache
// value reads.
func validityBurst(t *testing.T, m *Maxson, sql string, want *refResult, n int, concurrent bool) []int64 {
	t.Helper()
	values := make([]int64, n)
	errs := make([]error, n)
	run := func(i int) {
		rs, met, err := m.QueryCtx(context.Background(), sql)
		if err != nil {
			errs[i] = err
		} else if diff := want.match(rs.Columns, rs.Rows); diff != "" {
			errs[i] = fmt.Errorf("rows differ from the reference: %s", diff)
		} else {
			values[i] = met.CacheValuesRead.Load()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if !concurrent {
			run(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	return values
}

func mustPopulate(t *testing.T, m *Maxson, sel []*PathProfile) {
	t.Helper()
	if _, err := m.CacheSelected(context.Background(), sel); err != nil {
		t.Fatal(err)
	}
}

// mustRewrite replaces the rows of mydb.t's i-th raw part.
func mustRewrite(t *testing.T, f *fixture, i int, rows [][]datum.Datum) {
	t.Helper()
	if err := f.wh.RewriteFile("mydb", "t", rawParts(t, f)[i], rows); err != nil {
		t.Fatal(err)
	}
}
