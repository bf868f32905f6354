package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestStateRaceWithQueries races concurrent QueryCtx traffic, each query
// observed by the collector, against SaveState/LoadState — the drain-time
// flush and restart-time restore a long-lived server runs while queries may
// still be in flight — and against midnight cycles, which retire and read
// the collector's days. Run with -race. The invariants: no data race, every
// query returns either the correct rows or no error at all, and the registry
// stays consistent (a LoadState mid-traffic swaps atomically, so queries see
// the old or the new catalog, never a torn one).
func TestStateRaceWithQueries(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	cachePaths(t, m, "$.turnover", "$.item_id")

	const sql = `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`
	baseline, _, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.String()

	// Seed one good state file so LoadState has something real to restore.
	if err := m.SaveState(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// 4 query workers in a tight loop.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, _, err := m.QueryCtx(ctx, sql)
				if err != nil {
					report(err)
					return
				}
				if got := rs.String(); got != want {
					report(errStateRaceRows{got: got, want: want})
					return
				}
			}
		}()
	}
	// One saver, one loader and one cycle racing the queries and each other.
	// The queries are observed today, so each cycle collects no history and
	// leaves the registry alone.
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.RunMidnightCycleCtx(ctx); err != nil {
				report(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.SaveState(); err != nil {
				report(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.LoadState(); err != nil {
				report(err)
				return
			}
		}
	}()

	// Let the race run, then stop the query workers.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// The registry survived the churn consistent: entries still resolve and
	// one more save/load round-trip works on the final state.
	if m.Registry.Len() == 0 {
		t.Fatal("registry empty after save/load churn")
	}
	if err := m.SaveState(); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadState(); err != nil {
		t.Fatal(err)
	}
	rs, _, err := m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs.String() != want {
		t.Fatal("results diverged after final save/load round-trip")
	}
}

// errStateRaceRows reports a result-set mismatch with both renderings.
type errStateRaceRows struct{ got, want string }

func (e errStateRaceRows) Error() string {
	return "wrong rows under state race:\ngot  " + e.got + "\nwant " + e.want
}
