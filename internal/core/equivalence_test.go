package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
)

// TestQuickMaxsonEquivalence is the system's central correctness property:
// for randomized tables, randomized queries, and randomized cached-path
// subsets, the plain engine and a Maxson-modified execution each return
// exactly the reference's rows (reference_test.go), before and after an
// append. Runs many seeded rounds.
func TestQuickMaxsonEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runEquivalenceRound(t, seed)
		})
	}
}

// equivalenceQueries cover projection, filters, grouping on a path with the
// string "NULL" among its values, float SUM and AVG over up to four splits, a
// LIMIT, and a join.
var equivalenceQueries = []string{
	`SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`,
	`SELECT get_json_object(doc, '$.a') a, get_json_object(doc, '$.b') b,
	        get_json_object(doc, '$.nested.x') nx
	 FROM db.t WHERE get_json_object(doc, '$.nested.x') > 50 ORDER BY id`,
	`SELECT get_json_object(doc, '$.c') c, COUNT(*) n
	 FROM db.t GROUP BY get_json_object(doc, '$.c') ORDER BY c`,
	`SELECT tag, COUNT(get_json_object(doc, '$.d')) n
	 FROM db.t GROUP BY tag ORDER BY tag`,
	`SELECT tag, SUM(cast_double(get_json_object(doc, '$.f'))) s, AVG(get_json_object(doc, '$.f')) m
	 FROM db.t GROUP BY tag`,
	`SELECT SUM(cast_double(get_json_object(doc, '$.f'))) s FROM db.t WHERE get_json_object(doc, '$.a') IS NOT NULL`,
	`SELECT id FROM db.t WHERE get_json_object(doc, '$.a') IS NOT NULL ORDER BY id`,
	`SELECT get_json_object(doc, '$.nested') o FROM db.t ORDER BY id LIMIT 7`,
	`SELECT COUNT(*) n FROM db.t a JOIN db.t b ON a.id = b.id
	 WHERE get_json_object(a.doc, '$.nested.x') >= 0`,
}

func runEquivalenceRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	// Random table: 1-4 part files, random rows, JSON docs with a stable
	// field set but randomized values and occasional missing fields.
	makeDoc := func() string {
		obj := sjson.Object()
		for _, f := range []string{"a", "b", "c", "d"} {
			switch rng.Intn(5) {
			case 0:
				// missing
			case 1:
				obj.Set(f, sjson.Int(int64(rng.Intn(200))))
			case 2:
				obj.Set(f, sjson.String(fmt.Sprintf("s%d", rng.Intn(50))))
			case 3:
				obj.Set(f, sjson.String("NULL"))
			default:
				obj.Set(f, sjson.Bool(rng.Intn(2) == 0))
			}
		}
		if rng.Intn(4) > 0 {
			obj.Set("f", sjson.Number(float64(rng.Intn(10000))/100))
		}
		inner := sjson.Object()
		inner.Set("x", sjson.Int(int64(rng.Intn(100))))
		obj.Set("nested", inner)
		return sjson.Serialize(obj)
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 4 + rng.Intn(8)})
	table := testbed.Table{DB: "db", Name: "t", Schema: orc.Schema{Columns: []orc.Column{
		{Name: "id", Type: datum.TypeInt64},
		{Name: "tag", Type: datum.TypeString},
		{Name: "doc", Type: datum.TypeString},
	}}}
	id := 0
	for f := 1 + rng.Intn(4); f > 0; f-- {
		var rows [][]datum.Datum
		for i := 1 + rng.Intn(20); i > 0; i-- {
			rows = append(rows, []datum.Datum{datum.Int(int64(id)), datum.Str(fmt.Sprintf("g%d", id%3)), datum.Str(makeDoc())})
			id++
		}
		table.Parts = append(table.Parts, rows)
	}
	if err := bed.Load(time.Hour, table); err != nil {
		t.Fatal(err)
	}
	bed.Clock.Advance(time.Hour)
	// Two engines over one warehouse: core.New installs the plan modifier on
	// the engine it is given, so the plain lane needs its own.
	plain := sqlengine.NewEngine(bed.WH, sqlengine.WithDefaultDB("db"), sqlengine.WithParallelism(2))
	m := New(sqlengine.NewEngine(bed.WH, sqlengine.WithDefaultDB("db"), sqlengine.WithParallelism(2)),
		Config{BudgetBytes: 1 << 30, DefaultDB: "db"})

	// Cache a random subset of paths.
	var profiles []*PathProfile
	for _, p := range []string{"$.a", "$.b", "$.c", "$.d", "$.f", "$.nested.x", "$.nested"} {
		if rng.Intn(2) == 0 {
			profiles = append(profiles, &PathProfile{
				Key:             pathkey.Key{DB: "db", Table: "t", Column: "doc", Path: p},
				TotalValueBytes: 1,
			})
		}
	}
	if _, err := m.CacheSelected(context.Background(), profiles); err != nil {
		t.Fatal(err)
	}

	check := func(when string) {
		t.Helper()
		for q, sql := range equivalenceQueries {
			for _, lane := range []struct {
				name  string
				query func(context.Context, string) (*sqlengine.ResultSet, *sqlengine.Metrics, error)
			}{{"plain", plain.QueryCtx}, {"maxson", m.QueryCtx}} {
				rs, _, err := lane.query(context.Background(), sql)
				if err != nil {
					t.Fatalf("%s %s %q: %v", when, lane.name, sql, err)
				}
				t.Run(fmt.Sprintf("%s/%s/q%d", when, lane.name, q), func(t *testing.T) {
					requireReference(t, bed.WH, "db", sql, rs)
				})
			}
		}
	}
	check("cached[" + strings.Join(cachedPaths(profiles), " ") + "]")

	// Append one more file, then re-check (fallback path equivalence).
	newRows := [][]datum.Datum{{datum.Int(9999), datum.Str("g0"), datum.Str(`{"a":1,"f":0.25,"nested":{"x":5}}`)}}
	if _, err := bed.WH.AppendRows("db", "t", newRows); err != nil {
		t.Fatal(err)
	}
	check("post-append")
}

func cachedPaths(profiles []*PathProfile) []string {
	var out []string
	for _, p := range profiles {
		out = append(out, p.Key.Path)
	}
	return out
}
