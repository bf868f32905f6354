package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/experiments/baseline"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
)

// invarianceBatchSizes are the scan batch capacities every round runs at.
// Capacity 1 is the row-at-a-time walk — one row per NextBatch call — on the
// executor's one code path.
var invarianceBatchSizes = []int{1, 3, 128, 1024}

// TestBatchRowEquivalence is the executor's batch-size invariance property
// (batch ≡ row, the row walk being capacity 1): for randomized tables,
// randomized cached-path subsets, and queries that exercise every scan source
// — the plain file scan, the combined (and combined-pushdown) cache scan, and
// the fallback scan over uncovered splits — the plain engine and Maxson each
// return exactly the same ResultSet AND the same Metrics totals at every
// batch size, and Maxson's result equals the plain engine's.
func TestBatchRowEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runBatchSizeRound(t, seed)
		})
	}
}

func runBatchSizeRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	fields := []string{"a", "b", "c", "d"}
	makeDoc := func(rng *rand.Rand) string {
		obj := sjson.Object()
		for _, f := range fields {
			switch rng.Intn(4) {
			case 0:
				// missing
			case 1:
				obj.Set(f, sjson.Int(int64(rng.Intn(200))))
			case 2:
				obj.Set(f, sjson.String(fmt.Sprintf("s%d", rng.Intn(50))))
			default:
				obj.Set(f, sjson.Bool(rng.Intn(2) == 0))
			}
		}
		inner := sjson.Object()
		inner.Set("x", sjson.Int(int64(rng.Intn(100))))
		obj.Set("nested", inner)
		arr := sjson.Array()
		for i := rng.Intn(4); i > 0; i-- {
			arr.Append(sjson.Int(int64(rng.Intn(30))))
		}
		obj.Set("arr", arr)
		return sjson.Serialize(obj)
	}

	// Every deployment is built from the same RNG stream so the data is
	// byte-for-byte the same; only the batch size differs.
	dataSeed := rng.Int63()
	rgRows := 4 + rng.Intn(8)
	type queryFunc = func(context.Context, string) (*sqlengine.ResultSet, *sqlengine.Metrics, error)
	type deployment struct {
		batchSize int
		plain     *sqlengine.Engine
		maxson    *Maxson
	}
	build := func(batchSize int) deployment {
		rng := rand.New(rand.NewSource(dataSeed))
		bed := testbed.New(testbed.Config{RowGroupRows: rgRows})
		table := testbed.Table{DB: "db", Name: "t", Schema: orc.Schema{Columns: []orc.Column{
			{Name: "id", Type: datum.TypeInt64},
			{Name: "tag", Type: datum.TypeString},
			{Name: "doc", Type: datum.TypeString},
		}}}
		id := 0
		for f := 1 + rng.Intn(4); f > 0; f-- {
			var rows [][]datum.Datum
			for i := 1 + rng.Intn(20); i > 0; i-- {
				rows = append(rows, []datum.Datum{
					datum.Int(int64(id)),
					datum.Str(fmt.Sprintf("g%d", id%3)),
					datum.Str(makeDoc(rng)),
				})
				id++
			}
			table.Parts = append(table.Parts, rows)
		}
		if err := bed.Load(time.Hour, table); err != nil {
			t.Fatal(err)
		}
		// Odd seeds run the engine's streaming evaluator, even seeds the
		// tree-parse baseline, so both are covered at every batch size.
		backend := sqlengine.ParserBackend(baseline.JacksonBackend{})
		if seed%2 == 1 {
			backend = sqlengine.StreamBackend{}
		}
		// Two engines over one warehouse: core.New installs the plan modifier
		// on the engine it is given, so the plain lane needs its own.
		newEngine := func() *sqlengine.Engine {
			return sqlengine.NewEngine(bed.WH,
				sqlengine.WithDefaultDB("db"),
				sqlengine.WithParallelism(2),
				sqlengine.WithBatchSize(batchSize),
				sqlengine.WithBackend(backend))
		}
		return deployment{batchSize, newEngine(), New(newEngine(), Config{BudgetBytes: 1 << 30, DefaultDB: "db"})}
	}
	var deps []deployment
	for _, size := range invarianceBatchSizes {
		deps = append(deps, build(size))
	}

	// Cache $.a and $.nested.x always (so the combined and combined-pushdown
	// scans are exercised every round) plus a random tail of other paths.
	cached := []string{"$.a", "$.nested.x"}
	rng = rand.New(rand.NewSource(seed*7 + 13))
	for _, p := range []string{"$.b", "$.c", "$.d", "$.nested", "$.arr[*]"} {
		if rng.Intn(2) == 0 {
			cached = append(cached, p)
		}
	}
	var profiles []*PathProfile
	for _, p := range cached {
		profiles = append(profiles, &PathProfile{
			Key:             pathkey.Key{DB: "db", Table: "t", Column: "doc", Path: p},
			TotalValueBytes: 1,
		})
	}
	for _, d := range deps {
		if _, err := d.maxson.CacheSelected(context.Background(), profiles); err != nil {
			t.Fatal(err)
		}
	}

	// Queries spanning scan, filter, projection, group-by,
	// distinct, sort, limit, and join — over both cached and uncached paths.
	queries := []string{
		`SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`,
		`SELECT get_json_object(doc, '$.a') a, get_json_object(doc, '$.b') b,
		        get_json_object(doc, '$.nested.x') nx
		 FROM db.t WHERE get_json_object(doc, '$.nested.x') > 50 ORDER BY id`,
		`SELECT id FROM db.t WHERE get_json_object(doc, '$.a') = 's7' ORDER BY id`,
		`SELECT get_json_object(doc, '$.c') c, COUNT(*) n
		 FROM db.t GROUP BY get_json_object(doc, '$.c') ORDER BY c`,
		`SELECT tag, COUNT(get_json_object(doc, '$.d')) n, MIN(id) lo
		 FROM db.t GROUP BY tag ORDER BY tag`,
		`SELECT DISTINCT tag, get_json_object(doc, '$.a') a FROM db.t`,
		`SELECT get_json_object(doc, '$.nested') o FROM db.t ORDER BY id LIMIT 7`,
		// Mixed trie-eligible + wildcard paths in one query: the evaluator
		// must stream $.a / $.nested.x and tree-parse $.arr[*] per doc.
		`SELECT get_json_object(doc, '$.a') a, get_json_object(doc, '$.arr[*]') w,
		        get_json_object(doc, '$.nested.x') nx
		 FROM db.t ORDER BY id`,
		`SELECT COUNT(*) n FROM db.t a JOIN db.t b ON a.tag = b.tag
		 WHERE get_json_object(a.doc, '$.nested.x') >= 0`,
	}

	check := func(stage string) {
		for _, sql := range queries {
			// Plain engines exercise fileRowSource; Maxson engines exercise
			// the combined / combined-pushdown / fallback sources.
			var plainResult string
			for _, lane := range []struct {
				name string
				run  func(deployment) queryFunc
			}{
				{"plain", func(d deployment) queryFunc { return d.plain.QueryCtx }},
				{"maxson", func(d deployment) queryFunc { return d.maxson.QueryCtx }},
			} {
				var want string
				var wantM *sqlengine.Metrics
				for i, d := range deps {
					rs, m, err := lane.run(d)(context.Background(), sql)
					if err != nil {
						t.Fatalf("%s %s batch=%d %q: %v", stage, lane.name, d.batchSize, sql, err)
					}
					if i == 0 {
						want, wantM = rs.String(), m
						continue
					}
					if got := rs.String(); got != want {
						t.Fatalf("seed %d %s %s: results differ for %q\nbatch=%d:\n%s\nbatch=%d:\n%s",
							seed, stage, lane.name, sql, d.batchSize, got, deps[0].batchSize, want)
					}
					if diff := metricsDiff(m, wantM); diff != "" {
						t.Fatalf("seed %d %s %s: metrics differ for %q (batch=%d vs batch=%d): %s",
							seed, stage, lane.name, sql, d.batchSize, deps[0].batchSize, diff)
					}
				}
				if lane.name == "plain" {
					plainResult = want
				} else if want != plainResult {
					t.Fatalf("seed %d %s: maxson differs from plain for %q\nmaxson:\n%s\nplain:\n%s",
						seed, stage, sql, want, plainResult)
				}
			}
		}
	}

	check("cached")

	// Append one more file to every deployment: those splits postdate the
	// cache, so Maxson serves them through the fallback source.
	newRows := [][]datum.Datum{
		{datum.Int(9999), datum.Str("g0"), datum.Str(`{"a":1,"nested":{"x":5}}`)},
		{datum.Int(10000), datum.Str("g1"), datum.Str(`{"a":"s7","b":2,"nested":{"x":77}}`)},
	}
	for _, d := range deps {
		if _, err := d.plain.Warehouse().AppendRows("db", "t", newRows); err != nil {
			t.Fatal(err)
		}
	}
	check("post-append")
}

// metricsDiff compares every observable counter total of two executions and
// returns a description of the first mismatch ("" when identical).
func metricsDiff(a, b *sqlengine.Metrics) string {
	pa, pb := a.Parse.Snapshot(), b.Parse.Snapshot()
	counters := []struct {
		name string
		a, b int64
	}{
		{"BytesRead", a.BytesRead.Load(), b.BytesRead.Load()},
		{"RowsScanned", a.RowsScanned.Load(), b.RowsScanned.Load()},
		{"RowGroupsRead", a.RowGroupsRead.Load(), b.RowGroupsRead.Load()},
		{"RowGroupsSkipped", a.RowGroupsSkipped.Load(), b.RowGroupsSkipped.Load()},
		{"ParseDocs", pa.Docs, pb.Docs},
		{"ParseBytes", pa.Bytes, pb.Bytes},
		{"ParseSkipped", pa.Skipped, pb.Skipped},
		{"ParseCalls", pa.Calls, pb.Calls},
		{"RowOps", a.RowOps.Load(), b.RowOps.Load()},
		{"CacheValuesRead", a.CacheValuesRead.Load(), b.CacheValuesRead.Load()},
		{"CacheHits", a.CacheHits.Load(), b.CacheHits.Load()},
		{"CacheMisses", a.CacheMisses.Load(), b.CacheMisses.Load()},
	}
	for _, c := range counters {
		if c.a != c.b {
			return fmt.Sprintf("%s: %d vs %d", c.name, c.a, c.b)
		}
	}
	return ""
}
