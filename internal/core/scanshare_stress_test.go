package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// The scanshare stress suite drives the shared-scan scheduler through the
// full Maxson stack: one pass over the union of combined cache+raw scans and
// over raw scans alike, per-query cancellation mid-group, fault injection,
// and quarantine-triggered re-planning — all concurrently, under the
// invariant that every surviving query returns exactly its serial rows and
// the RowBatch pool returns to baseline.

// newShareChaosEnv is newChaosEnv with the shared-scan scheduler enabled
// from construction (the scheduler hooks the engine at Maxson build time, so
// it cannot be retrofitted onto an existing env).
func newShareChaosEnv(t *testing.T, dataSeed int64) *chaosEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(dataSeed))
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 8}))
	wh.CreateDatabase("db")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "id", Type: datum.TypeInt64},
		{Name: "doc", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("db", "t", schema); err != nil {
		t.Fatal(err)
	}
	id := 0
	for f := 0; f < 3; f++ {
		var rows [][]datum.Datum
		for i := 0; i < 12+rng.Intn(12); i++ {
			doc := fmt.Sprintf(`{"a":%d,"b":"g%d","nested":{"x":%d}}`,
				rng.Intn(100), rng.Intn(3), rng.Intn(80))
			rows = append(rows, []datum.Datum{datum.Int(int64(id)), datum.Str(doc)})
			id++
		}
		if _, err := wh.AppendRows("db", "t", rows); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Hour)
	}
	e := sqlengine.NewEngine(wh,
		sqlengine.WithDefaultDB("db"),
		sqlengine.WithParallelism(2),
		sqlengine.WithBatchSize(16))
	m := New(e, Config{
		BudgetBytes:         1 << 30,
		DefaultDB:           "db",
		ScanShareWindow:     150 * time.Millisecond,
		ScanShareMaxQueries: 16,
	})
	wh.SetRetrySleep(func(time.Duration) {})
	env := &chaosEnv{clock: clock, fs: fs, wh: wh, e: e, m: m}
	env.populate(t)
	return env
}

// waitBatchBaseline polls: a detached participant's channel may still hold
// batches for a moment after its query returns (the producer's end-of-run
// drain races the query's Release), so the pool re-balances shortly after
// the last query rather than synchronously with it.
func waitBatchBaseline(t *testing.T, before int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := sqlengine.OutstandingBatches(); got == before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled RowBatch leak: outstanding %d before, %d after (2s grace)",
				before, sqlengine.OutstandingBatches())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScanShareStressMixed is the seeded mixed-workload stress run: eight
// concurrent queries — shared combined cached scans, a shared/solo
// group-by, a COUNT, one cancelled mid-flight — with transient IO faults
// injected underneath. Every completed query must return its serial rows.
func TestScanShareStressMixed(t *testing.T) {
	env := newShareChaosEnv(t, 201)

	qa := chaosQueries[0] // cached paths → combined factory → shared pass
	qb := chaosQueries[1] // cached + residual filter → shared pass
	qc := chaosQueries[2] // uncached $.b group-by → raw scan
	qd := chaosQueries[3] // COUNT over cached path

	// Serial baselines first (each runs solo through the same scheduler, so
	// sharing itself is out of the picture).
	baseline := map[string]string{}
	for _, sql := range []string{qa, qb, qc, qd} {
		rs, _, err := env.m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("serial baseline %q: %v", sql, err)
		}
		baseline[sql] = rs.String()
	}
	// Then a concurrent pair of each: whatever the baselines left behind, a
	// pair leaves its scan's fingerprint contended (its second query marks
	// it, or the two coalesce), so in the burst below the first query of
	// every fingerprint opens a group and the rest join it.
	for _, sql := range []string{qa, qb, qc, qd} {
		pairErrs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range pairErrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, pairErrs[i] = env.m.QueryCtx(context.Background(), sql)
			}(i)
		}
		wg.Wait()
		if err := errors.Join(pairErrs...); err != nil {
			t.Fatalf("contending pair %q: %v", sql, err)
		}
	}
	coalescedBefore := env.m.Obs().Counter("scanshare_queries_coalesced_total").Value()
	before := sqlengine.OutstandingBatches()

	// Transient open failures: the warehouse retry loop must absorb them no
	// matter which pass (shared producer or unshared worker) hits them.
	inj := fault.New(201)
	inj.Add(fault.Rule{Op: fault.OpOpen, Kind: fault.KindError, FailN: 3, Transient: true})
	env.fs.SetInjector(inj)
	defer env.fs.SetInjector(nil)

	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(180 * time.Millisecond) // shortly after the window seals
		cancel()
	}()

	type job struct {
		sql string
		ctx context.Context
	}
	jobs := []job{
		{qa, nil}, {qa, nil}, {qb, nil}, {qb, nil},
		{qc, nil}, {qd, nil}, {qa, cctx}, {qb, nil},
	}
	results := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			<-start
			ctx := j.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			rs, _, err := env.m.QueryCtx(ctx, j.sql)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = rs.String()
		}(i, j)
	}
	close(start)
	wg.Wait()

	for i, j := range jobs {
		if j.ctx != nil {
			// The cancelled query may have finished first — then its rows
			// must be right — or carry a context error. Nothing else.
			if errs[i] == nil && results[i] != baseline[j.sql] {
				t.Fatalf("cancelled query returned wrong rows:\nwant:\n%s\ngot:\n%s",
					baseline[j.sql], results[i])
			}
			if errs[i] != nil && !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("cancelled query error = %v, want context.Canceled", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("query %d %q under stress: %v", i, j.sql, errs[i])
		}
		if results[i] != baseline[j.sql] {
			t.Fatalf("query %d %q diverged from serial run:\nwant:\n%s\ngot:\n%s",
				i, j.sql, baseline[j.sql], results[i])
		}
	}
	if n := env.m.Obs().Counter("scanshare_queries_coalesced_total").Value() - coalescedBefore; n < 2 {
		t.Fatalf("scanshare_queries_coalesced_total = %d, want >= 2 (nothing actually shared)", n)
	}
	waitBatchBaseline(t, before)

	// The scheduler must be reusable after the storm: one more serial pass.
	env.fs.SetInjector(nil)
	for _, sql := range []string{qa, qc} {
		rs, _, err := env.m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("post-stress %q: %v", sql, err)
		}
		if rs.String() != baseline[sql] {
			t.Fatalf("post-stress results diverged for %q", sql)
		}
	}
}

// TestScanShareDegradePropagation fails cache-file decoding mid-stream under
// a shared combined scan, first of identical queries, then of two asking
// different cached paths: the single producer hits ErrCacheDegraded, every
// participant observes it, quarantines, re-plans on raw — and the retries
// (now raw scans with the same fingerprint) still return exact rows.
func TestScanShareDegradePropagation(t *testing.T) {
	env := newShareChaosEnv(t, 202)
	sql := chaosQueries[0]
	rs, _, err := env.m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	want := rs.String()
	before := sqlengine.OutstandingBatches()

	inj := fault.New(202)
	inj.Add(fault.Rule{Pattern: "maxson_cache", Op: fault.OpDecode, Kind: fault.KindError, FailN: 1})
	env.fs.SetInjector(inj)
	defer env.fs.SetInjector(nil)

	const n = 3
	results := make([]string, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rs, _, err := env.m.QueryCtx(context.Background(), sql)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = rs.String()
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d with truncated cache under sharing: %v", i, errs[i])
		}
		if results[i] != want {
			t.Fatalf("query %d diverged with truncated cache:\nwant:\n%s\ngot:\n%s",
				i, want, results[i])
		}
	}
	if env.m.Registry.QuarantineCount() == 0 {
		t.Fatal("cache table was never quarantined despite unreadable cache files")
	}
	if env.m.Obs().Counter("cache_fallback_queries_total").Value() == 0 {
		t.Fatal("no query recorded a degraded re-plan")
	}
	waitBatchBaseline(t, before)

	// Two queries asking different cached paths share one pass over the
	// union of their cache columns. Its one failed decode fails both: each
	// re-plans on raw alone and returns its exact rows.
	env = newShareChaosEnv(t, 204)
	subsets := []string{
		`SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`,
		`SELECT id, get_json_object(doc, '$.nested.x') nx FROM db.t ORDER BY id`,
	}
	wants := make([]string, len(subsets))
	for i, sql := range subsets {
		rs, _, err := env.m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("serial baseline %q: %v", sql, err)
		}
		wants[i] = rs.String()
	}
	for i := 0; i < 2; i++ { // the second marks the scan contended
		if _, _, err := env.m.QueryCtx(context.Background(), subsets[0]); err != nil {
			t.Fatal(err)
		}
	}
	before = sqlengine.OutstandingBatches()
	inj = fault.New(204)
	inj.Add(fault.Rule{Pattern: "maxson_cache", Op: fault.OpDecode, Kind: fault.KindError, FailN: 1})
	env.fs.SetInjector(inj)
	defer env.fs.SetInjector(nil)

	results, errs = make([]string, len(subsets)), make([]error, len(subsets))
	for i, sql := range subsets {
		wg.Add(1)
		go func(i int, sql string) {
			defer wg.Done()
			rs, _, err := env.m.QueryCtx(context.Background(), sql)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = rs.String()
		}(i, sql)
		time.Sleep(10 * time.Millisecond) // the first opens the group, the second joins it
	}
	wg.Wait()
	for i, sql := range subsets {
		if errs[i] != nil {
			t.Fatalf("%q after a degraded shared pass: %v", sql, errs[i])
		}
		if results[i] != wants[i] {
			t.Fatalf("%q diverged after a degraded shared pass:\nwant:\n%s\ngot:\n%s", sql, wants[i], results[i])
		}
	}
	if n := env.m.Obs().Counter("scanshare_groups_total").Value(); n == 0 {
		t.Fatal("the two subsets never shared a pass")
	}
	if n := env.m.Obs().Counter("cache_fallback_queries_total").Value(); n != int64(len(subsets)) {
		t.Fatalf("%d degraded re-plans, want one per participant of the failed pass (%d)", n, len(subsets))
	}
	waitBatchBaseline(t, before)
}

// TestScanShareWorkerPanicIsolation panics the shared producer mid-decode:
// every participant gets an attributed error (no process crash, no hang),
// and the next query over the same table works.
func TestScanShareWorkerPanicIsolation(t *testing.T) {
	env := newShareChaosEnv(t, 203)
	sql := chaosQueries[0]
	rs, _, err := env.m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.String()
	before := sqlengine.OutstandingBatches()

	inj := fault.New(203)
	inj.Add(fault.Rule{Pattern: "db/t", Op: fault.OpDecode, Kind: fault.KindPanic, FailN: 1})
	env.fs.SetInjector(inj)
	defer env.fs.SetInjector(nil)

	const n = 2
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, errs[i] = env.m.QueryCtx(context.Background(), sql)
		}(i)
	}
	close(start)
	wg.Wait()

	// FailN=1: exactly one pass panics. If the queries shared it, both see
	// the error; if the panic hit a lone pass, one errors. Either way no
	// query may hang or return silently wrong rows (checked by err shape).
	sawPanic := false
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			if !strings.Contains(errs[i].Error(), "panic") {
				t.Fatalf("query %d error %v does not attribute the panic", i, errs[i])
			}
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatal("no query surfaced the injected panic")
	}
	waitBatchBaseline(t, before)

	env.fs.SetInjector(nil)
	rs, _, err = env.m.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatalf("query after recovered producer panic: %v", err)
	}
	if rs.String() != want {
		t.Fatal("results diverged after recovered producer panic")
	}
}
