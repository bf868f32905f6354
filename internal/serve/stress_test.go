package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// The stress suite proves the tentpole claim: the generation swap is safe
// under live HTTP load. Continuous concurrent clients run across a real
// RunMidnightCycleCtx boundary (and across an injected mid-populate cycle
// failure, and a mid-scan cache degradation) with zero wrong results and
// zero panics escaping a handler — the previous cache generation serves
// throughout. Run with -race; everything is seeded.

// stressEnv is a full real stack: simulated fs + warehouse + engine +
// Maxson core, served over actual TCP by a Server.
type stressEnv struct {
	clock *simtime.Sim
	fs    *dfs.FS
	wh    *warehouse.Warehouse
	m     *core.Maxson
	reg   *obs.Registry
}

// stressQueries is the recurring mix; every query's result is independent
// of whether it is served from cache, so a response either matches the
// baseline exactly or the swap broke correctness.
var stressQueries = []string{
	`SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`,
	`SELECT get_json_object(doc, '$.a') a, get_json_object(doc, '$.nested.x') nx
	 FROM db.t WHERE get_json_object(doc, '$.nested.x') > 40 ORDER BY id`,
	`SELECT get_json_object(doc, '$.b') b, COUNT(*) n
	 FROM db.t GROUP BY get_json_object(doc, '$.b') ORDER BY b`,
	`SELECT COUNT(*) n FROM db.t WHERE get_json_object(doc, '$.a') >= 0`,
}

func newStressEnv(t *testing.T, dataSeed int64) *stressEnv {
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
	reg := obs.NewRegistry()
	m := core.New(e, core.Config{
		BudgetBytes: 1 << 30,
		Window:      3,
		DefaultDB:   "db",
		Obs:         reg,
		Model:       core.NewLSTMCRF(core.LSTMConfig{Hidden: 8, Epochs: 6, LR: 0.02, Seed: 1, Batch: 8}),
	})
	wh.SetRetrySleep(func(time.Duration) {})
	// Seed 12 days of the recurring workload so the first midnight cycle
	// predicts MPJPs and populates the cache.
	for day := 0; day < 12; day++ {
		for rep := 0; rep < 3; rep++ {
			m.Collector.Observe([]pathkey.Key{
				{DB: "db", Table: "t", Column: "doc", Path: "$.a"},
				{DB: "db", Table: "t", Column: "doc", Path: "$.nested.x"},
			}, clock.Now().Add(time.Duration(rep)*time.Hour))
		}
		clock.Advance(24 * time.Hour)
	}
	return &stressEnv{clock: clock, fs: fs, wh: wh, m: m, reg: reg}
}

// baselines renders every stress query without faults — the ground truth a
// served response must reproduce bit-for-bit, cache or no cache.
func (env *stressEnv) baselines(t *testing.T) [][][]string {
	t.Helper()
	out := make([][][]string, len(stressQueries))
	for i, sql := range stressQueries {
		rs, _, err := env.m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("baseline for %q: %v", sql, err)
		}
		rows := make([][]string, len(rs.Rows))
		for r, row := range rs.Rows {
			rows[r] = make([]string, len(row))
			for c, d := range row {
				rows[r][c] = d.AsString()
			}
		}
		out[i] = rows
	}
	return out
}

// stressClients runs n closed-loop HTTP clients against addr until stop
// closes. Every 200 is checked against the baseline; shed statuses are
// tolerated, anything else is a failure. After drainStarted flips,
// transport errors are expected (the listener is going away).
type stressClients struct {
	oks          atomic.Int64
	sheds        atomic.Int64
	wrong        atomic.Int64
	drainStarted atomic.Bool

	mu       sync.Mutex
	failures []string

	wg   sync.WaitGroup
	stop chan struct{}
}

func (sc *stressClients) fail(format string, args ...any) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.failures) < 10 {
		sc.failures = append(sc.failures, fmt.Sprintf(format, args...))
	}
}

func runStressClients(addr string, n int, want [][][]string) *stressClients {
	sc := &stressClients{stop: make(chan struct{})}
	for c := 0; c < n; c++ {
		sc.wg.Add(1)
		go func(c int) {
			defer sc.wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for iter := 0; ; iter++ {
				select {
				case <-sc.stop:
					return
				default:
				}
				qi := (c + iter) % len(stressQueries)
				body, _ := json.Marshal(map[string]any{
					"sql":     stressQueries[qi],
					"session": fmt.Sprintf("client-%d", c),
				})
				resp, err := client.Post("http://"+addr+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					if !sc.drainStarted.Load() {
						sc.fail("client %d transport error before drain: %v", c, err)
						sc.wrong.Add(1)
					}
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var qr struct {
						Rows [][]string `json:"rows"`
					}
					if err := json.Unmarshal(raw, &qr); err != nil {
						sc.wrong.Add(1)
						sc.fail("client %d: bad 200 body %q", c, raw)
						continue
					}
					if len(qr.Rows) == 0 {
						qr.Rows = [][]string{}
					}
					if len(want[qi]) == 0 && len(qr.Rows) == 0 {
						// both empty: fine
					} else if !reflect.DeepEqual(qr.Rows, want[qi]) {
						sc.wrong.Add(1)
						sc.fail("client %d query %d WRONG RESULT:\ngot  %v\nwant %v", c, qi, qr.Rows, want[qi])
					}
					sc.oks.Add(1)
				case http.StatusTooManyRequests, http.StatusGatewayTimeout:
					sc.sheds.Add(1)
				default:
					if sc.drainStarted.Load() {
						sc.sheds.Add(1)
						continue
					}
					sc.wrong.Add(1)
					sc.fail("client %d: unexpected status %d body %q", c, resp.StatusCode, raw)
				}
			}
		}(c)
	}
	return sc
}

// waitOKs blocks until at least target total successful responses arrived,
// proving traffic flowed during the current phase.
func (sc *stressClients) waitOKs(t *testing.T, target int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for sc.oks.Load() < target {
		if sc.wrong.Load() > 0 {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			t.Fatalf("client failure: %v", sc.failures)
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic stalled: %d oks, want %d", sc.oks.Load(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

// servingTables lists the distinct cache tables the registry currently
// serves from, sorted — the observable "which generation is live" signal.
func servingTables(m *core.Maxson) []string {
	seen := map[string]bool{}
	for _, e := range m.Registry.Entries() {
		seen[e.CacheDB+"/"+e.CacheTable] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestStressOnlineCycleUnderTraffic is the acceptance scenario: continuous
// concurrent queries run across (1) a clean midnight-cycle generation swap,
// (2) an injected mid-populate cycle failure, (3) a recovery cycle, and
// (4) an injected mid-scan cache degradation (quarantine + transparent
// re-plan on raw) — all while every single 200 is compared against the
// pre-computed baseline. Then the server drains under that same load.
func TestStressOnlineCycleUnderTraffic(t *testing.T) {
	env := newStressEnv(t, 1234)
	want := env.baselines(t)

	srv := New(env.m, Config{
		Workers:      4,
		QueueDepth:   32,
		QueryTimeout: 20 * time.Second,
		Obs:          env.reg,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sc := runStressClients(addr, 6, want)

	// Phase 0: pure raw serving (no cycle has run).
	sc.waitOKs(t, 20)

	// Phase 1: clean midnight cycle — the generation swap happens while the
	// six clients are mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	env.m.AdvanceToMidnight()
	report, err := env.m.RunMidnightCycleCtx(ctx)
	if err != nil {
		t.Fatalf("online cycle under traffic: %v", err)
	}
	if report.Selected == 0 {
		t.Fatalf("cycle cached nothing: %+v", report)
	}
	serving := servingTables(env.m)
	if len(serving) == 0 {
		t.Fatal("cycle registered no cache tables")
	}
	sc.waitOKs(t, sc.oks.Load()+20)

	// Phase 2: the next cycle dies mid-populate (first cache append fails).
	// The swap never happens, so the registry still references exactly the
	// previous generation's tables — traffic must not notice.
	inj := fault.New(7)
	inj.Add(fault.Rule{Pattern: "maxson_cache", Op: fault.OpAppend, Kind: fault.KindError, FailN: 1})
	env.fs.SetInjector(inj)
	env.m.AdvanceToMidnight()
	if _, err := env.m.RunMidnightCycleCtx(ctx); err == nil {
		t.Fatal("cycle with failing populate returned nil error")
	}
	env.fs.SetInjector(nil)
	if got := servingTables(env.m); !reflect.DeepEqual(got, serving) {
		t.Fatalf("failed cycle changed the serving tables: %v -> %v", serving, got)
	}
	sc.waitOKs(t, sc.oks.Load()+20)

	// Phase 3: recovery — the very next cycle succeeds and swaps to a fresh
	// generation's tables.
	env.m.AdvanceToMidnight()
	if _, err := env.m.RunMidnightCycleCtx(ctx); err != nil {
		t.Fatalf("recovery cycle: %v", err)
	}
	if got := servingTables(env.m); len(got) == 0 || reflect.DeepEqual(got, serving) {
		t.Fatalf("recovery cycle did not swap to new tables: %v -> %v", serving, got)
	}
	sc.waitOKs(t, sc.oks.Load()+20)

	// Phase 4: a cache table degrades mid-scan under one unlucky query. The
	// query must quarantine it and transparently re-plan on raw — still a
	// correct 200, surfaced only as cache_fallback_queries_total.
	inj = fault.New(8)
	inj.Add(fault.Rule{Pattern: "maxson_cache", Op: fault.OpDecode, Kind: fault.KindError, FailN: 1})
	env.fs.SetInjector(inj)
	deadline := time.Now().Add(30 * time.Second)
	for env.reg.Snapshot().Counter("cache_fallback_queries_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no query ever hit the injected cache degradation")
		}
		time.Sleep(time.Millisecond)
	}
	env.fs.SetInjector(nil)
	sc.waitOKs(t, sc.oks.Load()+20)

	// Drain under that same load: everything admitted answers, late
	// arrivals shed, and Shutdown returns well inside its deadline.
	sc.drainStarted.Store(true)
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Shutdown(dctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(sc.stop)
	sc.wg.Wait()

	if n := sc.wrong.Load(); n > 0 {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		t.Fatalf("%d wrong/failed responses under load: %v", n, sc.failures)
	}
	if n := env.reg.Snapshot().Counter("serve_handler_panics_total"); n != 0 {
		t.Fatalf("%d panics escaped into protect()", n)
	}
	t.Logf("stress: %d oks, %d sheds, fallbacks=%d",
		sc.oks.Load(), sc.sheds.Load(),
		env.reg.Snapshot().Counter("cache_fallback_queries_total"))
}

// TestStressDrainDeadline pins the drain bound with a backend that will
// never finish: Shutdown must give up at its deadline and report it rather
// than hanging the process.
func TestStressDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	backend := &stubBackend{fn: func(ctx context.Context, sql string) (*sqlengine.ResultSet, *sqlengine.Metrics, error) {
		<-release // ignores ctx: a worst-case stuck query
		return nil, nil, nil
	}}
	s := New(backend, Config{Workers: 1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
			bytes.NewReader([]byte(`{"sql":"stuck"}`)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown with a stuck query returned nil")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v; the 100ms deadline was not honored", elapsed)
	}
}
