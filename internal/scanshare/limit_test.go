package scanshare_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/scanshare"
	"repro/internal/sqlengine"
)

// TestLimitedParticipantLeavesAtOnce: in a shared group, a query with an
// unordered LIMIT leaves the pass the moment it has its rows, not when its
// query ends, so its sibling reads every row of the pass while the limited
// query still holds its handle; and two limited queries leave a pass that
// stops early and is accounted once.
func TestLimitedParticipantLeavesAtOnce(t *testing.T) {
	env := newShareEnv(t, 11, 40, 3, scanshare.Options{Window: 250 * time.Millisecond, MaxQueries: 2})
	const (
		full    = `SELECT id, get_json_object(doc, '$.a') a FROM db.t`
		limited = full + ` LIMIT 2`
	)
	wantFull, wantLimited := env.plainResult(t, full), env.plainResult(t, limited)
	env.contend(t, full)
	before := sqlengine.OutstandingBatches()
	ctx := context.Background()

	// By hand: attach a limited and an unlimited plan as one group, then read
	// the limited one to its LIMIT.
	plans := make([]*sqlengine.PhysicalPlan, 2)
	handles := make([]sqlengine.SharedScanHandle, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, sql := range []string{limited, full} {
		plan, _, err := env.shared.PlanOnly(sql)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = plan
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i], errs[i] = env.sched.Attach(ctx, env.shared, plans[i])
		}(i)
	}
	wg.Wait()
	for i, h := range handles {
		if errs[i] != nil || h == nil {
			t.Fatalf("attach %d: handle %v, err %v; want a shared pass", i, h, errs[i])
		}
		defer h.Release()
	}
	read := func(plan *sqlengine.PhysicalPlan, limit int, m *sqlengine.Metrics) int {
		rows := 0
		if err := env.shared.ScanBatches(plan.Scan.Factory, 0, 1, limit, m, func(_ *sqlengine.RowBatch, n int) error {
			rows += n
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if n := read(plans[0], 2, &sqlengine.Metrics{}); n != 2 {
		t.Fatalf("the limited participant read %d rows, want 2", n)
	}
	if !scanshare.Abandoned(handles[0]) {
		t.Fatal("the limited participant still holds its pipe after its LIMIT: the producer waits on it until its query ends")
	}
	var m sqlengine.Metrics
	if n := read(plans[1], -1, &m); n != 120 {
		t.Fatalf("the sibling read %d rows, want all 120", n)
	}
	if n := m.RowsScanned.Load(); n != 120 {
		t.Errorf("the sibling, at the end of the pass, accounts %d rows scanned, want the pass's 120", n)
	}

	// Through the engine: a limited and an unlimited query, then two limited
	// ones, each returning the plain engine's rows from one shared pass.
	for _, pair := range [][]string{{limited, full}, {limited, limited}} {
		res, mets, errs := runConcurrent(ctx, env.shared, pair, nil)
		scanned := 0
		for i, sql := range pair {
			if errs[i] != nil {
				t.Fatalf("%s: %v", sql, errs[i])
			}
			want := wantFull
			if sql == limited {
				want = wantLimited
			}
			if res[i] != want {
				t.Errorf("%s returned\n%s\nwant\n%s", sql, res[i], want)
			}
			if mets[i].ScanModes()&sqlengine.ScanShared == 0 {
				t.Errorf("%s ran unshared", sql)
			}
			if mets[i].RowsScanned.Load() > 0 {
				scanned++
			}
		}
		if scanned != 1 {
			t.Errorf("%d queries of %q account the pass, want exactly one", scanned, pair)
		}
	}
	// The producer of the last pass may still be reading a batch for nobody
	// when both queries return; it puts the batch back as it stops.
	deadline := time.Now().Add(2 * time.Second)
	for sqlengine.OutstandingBatches() != before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	checkBaseline(t, before)
}
