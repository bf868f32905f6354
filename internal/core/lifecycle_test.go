package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/sqlengine"
)

// The lifecycle suite checks that the serving manifests are the cache's only
// lifecycle state: every cache table that lives is named by a serving
// manifest, except the generation the last commit displaced, which the next
// retire drops; and every query still returns the plain engine's rows.

// lifecycleSelections are the path sets a lifecycle cycle picks from; every
// one holds $.turnover, which lifecycleQueries[0] reads.
var lifecycleSelections = [][]string{
	{"$.item_id", "$.turnover"},
	{"$.turnover", "$.item_name"},
	{"$.item_id", "$.turnover", "$.price"},
}

var lifecycleQueries = []string{
	`SELECT date, get_json_object(sale_logs, '$.item_id') id, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`,
	`SELECT get_json_object(sale_logs, '$.item_name') n, get_json_object(sale_logs, '$.price') p FROM mydb.t WHERE get_json_object(sale_logs, '$.turnover') > 100 ORDER BY date`,
}

// servingTables lists the cache tables m's serving manifests name, sorted.
func servingTables(m *Maxson) []string {
	var out []string
	for _, mf := range m.Registry.generation() {
		out = append(out, mf.CacheTable)
	}
	sort.Strings(out)
	return out
}

// requireOneGeneration fails unless every entry the registry serves was
// derived from its raw table's serving manifest, and the registry's totals
// agree with its entries: what the planner relies on when it plans a scan
// against one generation.
func requireOneGeneration(t *testing.T, m *Maxson, step int, name string) {
	t.Helper()
	serving := m.Registry.generation()
	entries := m.Registry.Entries()
	var bytes int64
	for _, e := range entries {
		if mf := serving[e.Key.TableID()]; e.Manifest != mf || e.CacheTable != mf.CacheTable {
			t.Fatalf("step %d (%s): %v is served from %s, not from its table's serving manifest", step, name, e.Key, e.CacheTable)
		}
		bytes += e.Bytes
	}
	if m.Registry.TotalBytes() != bytes || m.Registry.Len() != len(entries) {
		t.Fatalf("step %d (%s): TotalBytes %d and Len %d, but the entries sum %d bytes over %d",
			step, name, m.Registry.TotalBytes(), m.Registry.Len(), bytes, len(entries))
	}
}

// TestCacheLifecycleInvariants runs seeded random sequences of cycles,
// aborted and cancelled cycles, appends, quarantines, explicit retires and
// restarts. After an abort, a retire or a load, maxson_cache holds exactly
// the serving manifests' tables; after a commit, those and the tables the
// commit displaced; an append or a quarantine drops nothing. After every
// step the registry serves one generation.
func TestCacheLifecycleInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := newFixture(t)
			m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
			cycle := func(ctx context.Context) error {
				_, err := m.CacheSelected(ctx, selection(lifecycleSelections[rng.Intn(len(lifecycleSelections))]...))
				return err
			}
			for step := 0; step < 16; step++ {
				before, listed := servingTables(m), f.wh.ListTables(CacheDB)
				var name string
				var want []string // the cache tables the step leaves
				switch rng.Intn(7) {
				case 0:
					name = "cycle"
					if err := cycle(context.Background()); err != nil {
						t.Fatalf("step %d (%s): %v", step, name, err)
					}
					want = append(servingTables(m), before...)
				case 1:
					name = "cycle aborted by a cache-append fault"
					var err error
					withFaultedIngest(f.wh, func() { err = cycle(context.Background()) })
					if err == nil {
						t.Fatalf("step %d (%s): the cycle committed", step, name)
					}
					want = servingTables(m)
				case 2:
					name = "cancelled cycle"
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if err := cycle(ctx); err == nil {
						t.Fatalf("step %d (%s): the cycle committed", step, name)
					}
					want = servingTables(m)
				case 3:
					name = "append"
					mustAppend(f, saleRows(3+rng.Intn(5), 20+step))
					want = listed
				case 4:
					name = "quarantine through a cache decode fault"
					inj := fault.New(seed).Add(fault.Rule{Pattern: CacheDB + "/", Op: fault.OpDecode, Kind: fault.KindError, FailN: 1})
					f.wh.FS().SetInjector(inj)
					requirePlainRows(t, f, m, lifecycleQueries[0])
					f.wh.FS().SetInjector(nil)
					if inj.Injected() > 0 && (len(servingTables(m)) != 0 || m.Registry.Len() != 0) {
						t.Fatalf("step %d (%s): the faulted table still serves: %v", step, name, servingTables(m))
					}
					want = listed
				case 5:
					name = "retire"
					m.Cacher.DropRetired()
					want = servingTables(m)
				case 6:
					name = "SaveState, then LoadState on a new node"
					if err := m.SaveState(); err != nil {
						t.Fatal(err)
					}
					gen := m.Cacher.Generation()
					m = New(sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb")), Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
					if err := m.LoadState(); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(servingTables(m), before) || m.Cacher.Generation() != gen {
						t.Fatalf("step %d (%s): serving %v at generation %d, saved %v at %d",
							step, name, servingTables(m), m.Cacher.Generation(), before, gen)
					}
					want = before
				}
				sort.Strings(want)
				if got := f.wh.ListTables(CacheDB); !slices.Equal(got, want) {
					t.Fatalf("step %d (%s): cache tables %v, want %v (serving %v)", step, name, got, want, servingTables(m))
				}
				requireOneGeneration(t, m, step, name)
				for _, sql := range lifecycleQueries {
					requirePlainRows(t, f, m, sql)
				}
			}
		})
	}
}

// TestStateFileWithADropQueueLoads: a MAXST002 file that also lists the
// displaced generation under "pending_drop", as files were written while
// the cacher kept a drop queue, and files a "carry" bit per split, as files
// were written while a malformed document kept a split from being carried,
// still loads. Its intact manifests serve, and the table it queued is
// dropped, because no manifest names it. A manifest quarantined since is
// left out of the next SaveState.
func TestStateFileWithADropQueueLoads(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	sel := selection("$.item_id", "$.turnover")
	mustPopulate(t, m, sel)
	displaced := m.Cacher.ActiveCacheTable("mydb", "t")
	mustPopulate(t, m, sel)
	serving := m.Cacher.ActiveCacheTable("mydb", "t")
	manifests, err := json.Marshal(sortedManifests(m.Registry.generation()))
	if err != nil {
		t.Fatal(err)
	}
	manifests = bytes.ReplaceAll(manifests, []byte(`{"raw_path":`), []byte(`{"carry":false,"raw_path":`))
	if n := bytes.Count(manifests, []byte(`"carry":false`)); n != 3 {
		t.Fatalf("the payload files %d splits with a carry bit, want 3", n)
	}
	payload, err := json.Marshal(struct {
		Generation  int             `json:"generation"`
		PendingDrop [][2]string     `json:"pending_drop,omitempty"`
		Manifests   json.RawMessage `json:"manifests,omitempty"`
	}{m.Cacher.Generation(), [][2]string{{CacheDB, displaced}}, manifests})
	if err != nil {
		t.Fatal(err)
	}
	blob := binary.BigEndian.AppendUint32([]byte(stateMagic), crc32.ChecksumIEEE(payload))
	if err := f.wh.FS().WriteFileAtomic(statePath, append(blob, payload...)); err != nil {
		t.Fatal(err)
	}

	restarted := New(sqlengine.NewEngine(f.wh, sqlengine.WithDefaultDB("mydb")), Config{BudgetBytes: 1 << 30, DefaultDB: "mydb"})
	if err := restarted.LoadState(); err != nil {
		t.Fatal(err)
	}
	if tables := f.wh.ListTables(CacheDB); !slices.Equal(tables, []string{serving}) {
		t.Errorf("cache tables after the load: %v, want only the serving %s", tables, serving)
	}
	if got := restarted.Cacher.ActiveCacheTable("mydb", "t"); got != serving || restarted.Cacher.Generation() != m.Cacher.Generation() {
		t.Errorf("the restarted node serves %q at generation %d, want %s at %d", got, restarted.Cacher.Generation(), serving, m.Cacher.Generation())
	}
	met := requirePlainRows(t, f, restarted, `SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t ORDER BY date`)
	if docs, values := met.Parse.Docs.Load(), met.CacheValuesRead.Load(); docs != 0 || values != 31 {
		t.Errorf("the restarted node parsed %d documents and read %d cache values, want 0 and 31", docs, values)
	}

	if !restarted.Registry.Quarantine(serving) || restarted.Registry.QuarantineCount() != 1 || restarted.Registry.Len() != 0 {
		t.Fatalf("quarantine left %d entries serving (count %d)", restarted.Registry.Len(), restarted.Registry.QuarantineCount())
	}
	if err := restarted.SaveState(); err != nil {
		t.Fatal(err)
	}
	saved, err := f.wh.FS().ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(saved)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Manifests) != 0 {
		t.Errorf("SaveState persisted a quarantined manifest: %+v", st.Manifests)
	}
}
