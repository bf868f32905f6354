package scanshare_test

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scanshare"
	"repro/internal/sqlengine"
)

// The admission tests pin when a query waits: only when its fingerprint is
// contended, which two arrivals less than a window apart make it, and a
// group that seals alone unmakes.

const admissionSQL = `SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`

// windowWait returns the scheduler's window-wait histogram.
func (env *shareEnv) windowWait() obs.HistSnapshot {
	return env.reg.Snapshot().Histograms["scanshare_window_wait_ns"]
}

// queryUnshared runs sql on the shared engine and requires the rows of the
// plain engine from a scan that did not share.
func (env *shareEnv) queryUnshared(t *testing.T, ctx context.Context, sql, want string) {
	t.Helper()
	rs, m, err := env.shared.QueryCtx(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs.String() != want {
		t.Fatalf("result diverged:\nwant:\n%s\ngot:\n%s", want, rs.String())
	}
	if m.ScanModes()&sqlengine.ScanShared != 0 {
		t.Fatalf("query marked shared (PlanModeString=%q)", m.PlanModeString())
	}
}

func (env *shareEnv) plainResult(t *testing.T, sql string) string {
	t.Helper()
	rs, _, err := env.plain.QueryCtx(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	return rs.String()
}

// TestAdmissionSpacedQueriesRunAtOnce: queries of one fingerprint more than
// a window apart never expect company, so none of them opens a group or
// waits.
func TestAdmissionSpacedQueriesRunAtOnce(t *testing.T) {
	const window = 5 * time.Millisecond
	env := newShareEnv(t, 37, 20, 2, scanshare.Options{Window: window, MaxQueries: 16})
	want := env.plainResult(t, admissionSQL)
	before := sqlengine.OutstandingBatches()

	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(2 * window) // the next arrival comes more than a window after this one
		}
		env.queryUnshared(t, context.Background(), admissionSQL, want)
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 0 {
		t.Fatalf("scanshare_groups_total = %d, want 0", n)
	}
	if n := env.reg.Counter("scanshare_solo_queries_total").Value(); n != 3 {
		t.Fatalf("scanshare_solo_queries_total = %d, want 3", n)
	}
	if w := env.windowWait(); w.Count != 3 || w.Sum != 0 {
		t.Fatalf("window wait: %d observations summing %d ns, want 3 summing 0", w.Count, w.Sum)
	}
	if _, open := scanshare.State(env.sched); open != 0 {
		t.Fatalf("%d groups open after three lone queries", open)
	}
	checkBaseline(t, before)
}

// TestAdmissionCloseArrivalMarksContended: the second of two queries less
// than a window apart marks the fingerprint without waiting itself, and the
// next pair coalesces.
func TestAdmissionCloseArrivalMarksContended(t *testing.T) {
	env := newShareEnv(t, 41, 20, 2, scanshare.Options{Window: 250 * time.Millisecond, MaxQueries: 16})
	want := env.plainResult(t, admissionSQL)
	before := sqlengine.OutstandingBatches()

	env.queryUnshared(t, context.Background(), admissionSQL, want)
	env.queryUnshared(t, context.Background(), admissionSQL, want)
	if w := env.windowWait(); w.Count != 2 || w.Sum != 0 {
		t.Fatalf("window wait: %d observations summing %d ns, want 2 summing 0 (the marking arrival waited)", w.Count, w.Sum)
	}

	got, mets, errs := runConcurrent(context.Background(), env.shared, []string{admissionSQL, admissionSQL}, nil)
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Fatalf("pair query %d diverged:\nwant:\n%s\ngot:\n%s", i, want, got[i])
		}
		if mets[i].ScanModes()&sqlengine.ScanShared == 0 {
			t.Fatalf("pair query %d not shared (PlanModeString=%q)", i, mets[i].PlanModeString())
		}
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 1 {
		t.Fatalf("scanshare_groups_total = %d, want 1", n)
	}
	if n := env.reg.Counter("scanshare_queries_coalesced_total").Value(); n != 2 {
		t.Fatalf("scanshare_queries_coalesced_total = %d, want 2", n)
	}
	checkBaseline(t, before)
}

// TestAdmissionLoneGroupClearsContention: a contended fingerprint's next
// query waits a window for company; when none comes its group seals alone,
// and the query after it runs at once. That query arrives less than a window
// after the seal, like a partner that just missed the group, so it marks
// the fingerprint again and the pair after it coalesces.
func TestAdmissionLoneGroupClearsContention(t *testing.T) {
	const window = 100 * time.Millisecond
	env := newShareEnv(t, 43, 20, 2, scanshare.Options{Window: window, MaxQueries: 16})
	want := env.plainResult(t, admissionSQL)
	env.contend(t, admissionSQL)
	before := sqlengine.OutstandingBatches()

	env.queryUnshared(t, context.Background(), admissionSQL, want)
	w := env.windowWait()
	if w.Count != 3 || w.Sum < window.Nanoseconds() {
		t.Fatalf("window wait: %d observations summing %d ns, want 3 summing at least one window (%d ns)", w.Count, w.Sum, window.Nanoseconds())
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 0 {
		t.Fatalf("scanshare_groups_total = %d, want 0", n)
	}

	env.queryUnshared(t, context.Background(), admissionSQL, want)
	if after := env.windowWait(); after.Count != 4 || after.Sum != w.Sum {
		t.Fatalf("the query after a lone group waited %d ns", after.Sum-w.Sum)
	}
	if n := env.reg.Counter("scanshare_solo_queries_total").Value(); n != 4 {
		t.Fatalf("scanshare_solo_queries_total = %d, want 4", n)
	}

	got, _, errs := runConcurrent(context.Background(), env.shared, []string{admissionSQL, admissionSQL}, nil)
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Fatalf("pair query %d diverged:\nwant:\n%s\ngot:\n%s", i, want, got[i])
		}
	}
	if n := env.reg.Counter("scanshare_queries_coalesced_total").Value(); n != 2 {
		t.Fatalf("scanshare_queries_coalesced_total = %d, want 2: the query after the lone group did not mark the fingerprint", n)
	}
	checkBaseline(t, before)
}

// TestAdmissionCancelLeavesNoState: a query cancelled while it waits alone
// ends its group on the spot — no group, timer or contended bit is left, so
// the next query of its fingerprint runs at once instead of waiting out the
// window the cancelled one opened.
func TestAdmissionCancelLeavesNoState(t *testing.T) {
	env := newShareEnv(t, 47, 20, 2, scanshare.Options{Window: 10 * time.Second, MaxQueries: 16})
	want := env.plainResult(t, admissionSQL)
	env.contend(t, admissionSQL)
	before := sqlengine.OutstandingBatches()

	cctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := env.shared.QueryCtx(cctx, admissionSQL); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled query error = %v, want context.DeadlineExceeded", err)
	}
	if n := env.reg.Counter("scanshare_detach_total").Value(); n != 1 {
		t.Fatalf("scanshare_detach_total = %d, want 1", n)
	}
	if _, open := scanshare.State(env.sched); open != 0 {
		t.Fatalf("%d groups open after their only query was cancelled", open)
	}

	env.queryUnshared(t, context.Background(), admissionSQL, want)
	if w := env.windowWait(); w.Count != 3 || w.Sum != 0 {
		t.Fatalf("window wait: %d observations summing %d ns, want 3 summing 0", w.Count, w.Sum)
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 0 {
		t.Fatalf("scanshare_groups_total = %d, want 0", n)
	}
	checkBaseline(t, before)
}

// TestAdmissionStateStaysBounded: 10,000 distinct fingerprints are forgotten
// a window after they arrive once, and kept while contended only until an
// arrival names the table's next generation.
func TestAdmissionStateStaysBounded(t *testing.T) {
	const n = 10000
	plan := func(i int) *sqlengine.PhysicalPlan {
		return &sqlengine.PhysicalPlan{Scan: &sqlengine.ScanNode{
			DB: "db", Table: "t", Columns: []string{"c" + strconv.Itoa(i)}}}
	}
	attach := func(s *scanshare.Scheduler, p *sqlengine.PhysicalPlan) {
		// Neither first nor marking arrivals wait, so no engine is needed.
		if h, err := s.Attach(context.Background(), nil, p); h != nil || err != nil {
			t.Errorf("Attach = %v, %v; want an unshared run", h, err)
		}
	}

	// Once each, from four goroutines: swept a window later.
	const window = 20 * time.Millisecond
	s := scanshare.New(scanshare.Options{Window: window})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				attach(s, plan(i))
			}
		}(w)
	}
	wg.Wait()
	time.Sleep(window)
	attach(s, plan(n))
	if fps, open := scanshare.State(s); fps != 1 || open != 0 {
		t.Fatalf("after %d lone fingerprints and a window: %d remembered, %d groups open; want 1, 0", n, fps, open)
	}

	// Twice each, so every one is contended: kept for their generation.
	var gen atomic.Int64
	s = scanshare.New(scanshare.Options{
		Window:     time.Minute,
		Generation: func(string, string) int64 { return gen.Load() },
	})
	for i := 0; i < n; i++ {
		attach(s, plan(i))
		attach(s, plan(i))
	}
	if fps, _ := scanshare.State(s); fps != n {
		t.Fatalf("%d contended fingerprints remembered, want %d", fps, n)
	}
	gen.Add(1)
	attach(s, plan(0))
	if fps, open := scanshare.State(s); fps != 1 || open != 0 {
		t.Fatalf("after a generation advance: %d remembered, %d groups open; want 1, 0", fps, open)
	}
}
