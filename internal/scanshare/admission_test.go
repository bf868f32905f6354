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
// contended, which two arrivals less than a window apart make it unless they
// name one session, and a group that seals alone unmakes.

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

// TestAdmissionSameSessionRepeatNeverMarks: a client that repeats its own
// statement less than a window apart expects no company, so however often it
// does, no query of its session marks the fingerprint or waits.
func TestAdmissionSameSessionRepeatNeverMarks(t *testing.T) {
	env := newShareEnv(t, 53, 20, 2, scanshare.Options{Window: 250 * time.Millisecond, MaxQueries: 16})
	want := env.plainResult(t, admissionSQL)
	before := sqlengine.OutstandingBatches()

	ctx := sqlengine.WithSession(context.Background(), "c0")
	for i := 0; i < 4; i++ {
		env.queryUnshared(t, ctx, admissionSQL, want)
	}
	if w := env.windowWait(); w.Count != 4 || w.Sum != 0 {
		t.Fatalf("window wait: %d observations summing %d ns, want 4 summing 0 (a repeat marked its own fingerprint)", w.Count, w.Sum)
	}
	if n := env.reg.Counter("scanshare_groups_total").Value(); n != 0 {
		t.Fatalf("scanshare_groups_total = %d, want 0", n)
	}
	checkBaseline(t, before)
}

// TestAdmissionTwoSessionsMark: the same two close arrivals from two sessions
// are two clients, so the second marks the fingerprint and the next pair
// coalesces.
func TestAdmissionTwoSessionsMark(t *testing.T) {
	env := newShareEnv(t, 59, 20, 2, scanshare.Options{Window: 250 * time.Millisecond, MaxQueries: 16})
	want := env.plainResult(t, admissionSQL)
	before := sqlengine.OutstandingBatches()

	c0 := sqlengine.WithSession(context.Background(), "c0")
	c1 := sqlengine.WithSession(context.Background(), "c1")
	env.queryUnshared(t, c0, admissionSQL, want)
	env.queryUnshared(t, c1, admissionSQL, want)

	got, mets, errs := runConcurrent(context.Background(), env.shared, []string{admissionSQL, admissionSQL}, []context.Context{c0, c1})
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Fatalf("pair query %d diverged:\nwant:\n%s\ngot:\n%s", i, want, got[i])
		}
		if mets[i].ScanModes()&sqlengine.ScanShared == 0 {
			t.Fatalf("pair query %d not shared (PlanModeString=%q): the second session did not mark", i, mets[i].PlanModeString())
		}
	}
	if n := env.reg.Counter("scanshare_queries_coalesced_total").Value(); n != 2 {
		t.Fatalf("scanshare_queries_coalesced_total = %d, want 2", n)
	}
	checkBaseline(t, before)
}

// TestAdmissionLoneSealRemarksAnySession: a group that seals alone is an
// arrival of no session, so the query after it marks the fingerprint again
// even when it names the session whose query just waited alone.
func TestAdmissionLoneSealRemarksAnySession(t *testing.T) {
	const window = 100 * time.Millisecond
	env := newShareEnv(t, 61, 20, 2, scanshare.Options{Window: window, MaxQueries: 16})
	want := env.plainResult(t, admissionSQL)
	c0 := sqlengine.WithSession(context.Background(), "c0")
	c1 := sqlengine.WithSession(context.Background(), "c1")
	env.queryUnshared(t, c0, admissionSQL, want)
	env.queryUnshared(t, c1, admissionSQL, want)
	before := sqlengine.OutstandingBatches()

	env.queryUnshared(t, c0, admissionSQL, want) // waits a window alone
	if w := env.windowWait(); w.Sum < window.Nanoseconds() {
		t.Fatalf("window wait summing %d ns, want at least one window (%d ns)", w.Sum, window.Nanoseconds())
	}
	env.queryUnshared(t, c0, admissionSQL, want) // just after the seal: marks

	got, _, errs := runConcurrent(context.Background(), env.shared, []string{admissionSQL, admissionSQL}, []context.Context{c0, c1})
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Fatalf("pair query %d diverged:\nwant:\n%s\ngot:\n%s", i, want, got[i])
		}
	}
	if n := env.reg.Counter("scanshare_queries_coalesced_total").Value(); n != 2 {
		t.Fatalf("scanshare_queries_coalesced_total = %d, want 2: the query after the lone seal did not mark the fingerprint", n)
	}
	checkBaseline(t, before)
}

// stubUnioner is a shareable factory these tests never open.
type stubUnioner struct{}

func (stubUnioner) NumSplits() (int, error) { return 0, nil }
func (stubUnioner) Open(int, *sqlengine.Metrics, sqlengine.BatchSource) (sqlengine.BatchSource, error) {
	return nil, errors.New("stubUnioner: opened")
}
func (stubUnioner) Schema() (sqlengine.RowSchema, error) { return sqlengine.RowSchema{}, nil }
func (stubUnioner) ShareKey() string                     { return "stub" }
func (f stubUnioner) Union([]sqlengine.ScanSourceFactory, []sqlengine.Extraction, []sqlengine.RowCol) sqlengine.ScanSourceFactory {
	return f
}

// TestAdmissionNoSessionMarksOnlyEqualRows: arrivals that name no session
// mark as they did before a shared pass unioned cache columns. Two scans of
// one fingerprint whose rows hold different cache columns, sent one after the
// other, never mark it; the same scan sent twice does.
func TestAdmissionNoSessionMarksOnlyEqualRows(t *testing.T) {
	const window = 50 * time.Millisecond
	reg := obs.NewRegistry()
	s := scanshare.New(scanshare.Options{Window: window, Obs: reg})
	plan := func(cacheCol string) *sqlengine.PhysicalPlan {
		scan := &sqlengine.ScanNode{DB: "db", Table: "t", Factory: stubUnioner{}}
		scan.SetSchema(sqlengine.RowSchema{Cols: []sqlengine.RowCol{{Name: cacheCol}}})
		return &sqlengine.PhysicalPlan{Scan: scan}
	}
	sub, super := plan("cache_a"), plan("cache_a_b")
	// No group launches: a lone one seals without touching the engine.
	for i, p := range []*sqlengine.PhysicalPlan{sub, super, sub, super, sub, sub, sub} {
		if h, err := s.Attach(context.Background(), nil, p); h != nil || err != nil {
			t.Fatalf("arrival %d: Attach = %v, %v; want an unshared run", i, h, err)
		}
		w := reg.Snapshot().Histograms["scanshare_window_wait_ns"]
		switch {
		case i < 6 && w.Sum != 0:
			t.Fatalf("arrival %d waited %d ns: an earlier arrival marked the fingerprint", i, w.Sum)
		case i == 6 && w.Sum < window.Nanoseconds():
			t.Fatalf("the arrival after two equal ones waited %d ns, want a window (%d ns)", w.Sum, window.Nanoseconds())
		}
	}
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
