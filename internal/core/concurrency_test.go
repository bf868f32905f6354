package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestQueriesDuringRepopulation hammers the system with queries while the
// cache re-populates repeatedly. The generational design (new tables per
// cycle, previous generation deleted one cycle later) must keep every query
// succeeding with correct results throughout. With the scan-share window on
// (as maxson-serve runs) every query also asks the cacher for its generation
// while PopulateCtx advances it; run with -race.
func TestQueriesDuringRepopulation(t *testing.T) {
	t.Run("direct", func(t *testing.T) { queriesDuringRepopulation(t, 0) })
	t.Run("scan-share", func(t *testing.T) { queriesDuringRepopulation(t, 200*time.Microsecond) })
}

func queriesDuringRepopulation(t *testing.T, scanShareWindow time.Duration) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb", ScanShareWindow: scanShareWindow})
	cachePaths(t, m, "$.turnover", "$.item_name")

	const queriesPerWorker = 30
	var wg sync.WaitGroup
	errs := make(chan error, 4*queriesPerWorker)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				rs, _, err := m.QueryCtx(context.Background(), `
					SELECT get_json_object(sale_logs, '$.turnover') tv
					FROM mydb.t WHERE date = '20190115'`)
				if err != nil {
					errs <- err
					return
				}
				if len(rs.Rows) != 1 || rs.Rows[0][0].S != "150" {
					errs <- errWrongRows
					return
				}
			}
		}()
	}
	// Concurrent repopulation cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := m.CacheSelected(context.Background(), []*PathProfile{
				profileFor("$.turnover"), profileFor("$.item_name"),
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errWrongRows = errString("wrong rows under concurrent repopulation")

type errString string

func (e errString) Error() string { return string(e) }
