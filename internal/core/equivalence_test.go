package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// TestQuickMaxsonEquivalence is the system's central correctness property:
// for randomized tables, randomized queries, and randomized cached-path
// subsets, a Maxson-modified execution returns exactly the rows a plain
// execution returns. Runs many seeded rounds.
func TestQuickMaxsonEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runEquivalenceRound(t, seed)
		})
	}
}

func runEquivalenceRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	// Random table: 1-4 part files, random rows, JSON docs with a stable
	// field set but randomized values and occasional missing fields.
	fields := []string{"a", "b", "c", "d", "nested"}
	makeDoc := func() string {
		obj := sjson.Object()
		for _, f := range fields[:4] {
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
		return sjson.Serialize(obj)
	}

	build := func() (*sqlengine.Engine, *warehouse.Warehouse, *simtime.Sim, [][]string) {
		clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
		fs := dfs.New(dfs.WithClock(clock))
		wh := warehouse.New(fs, warehouse.WithClock(clock),
			warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 4 + rng.Intn(8)}))
		wh.CreateDatabase("db")
		schema := orc.Schema{Columns: []orc.Column{
			{Name: "id", Type: datum.TypeInt64},
			{Name: "tag", Type: datum.TypeString},
			{Name: "doc", Type: datum.TypeString},
		}}
		if err := wh.CreateTable("db", "t", schema); err != nil {
			t.Fatal(err)
		}
		nFiles := 1 + rng.Intn(4)
		var docs [][]string
		id := 0
		for f := 0; f < nFiles; f++ {
			n := 1 + rng.Intn(20)
			var rows [][]datum.Datum
			var fileDocs []string
			for i := 0; i < n; i++ {
				doc := makeDoc()
				fileDocs = append(fileDocs, doc)
				rows = append(rows, []datum.Datum{
					datum.Int(int64(id)),
					datum.Str(fmt.Sprintf("g%d", id%3)),
					datum.Str(doc),
				})
				id++
			}
			if _, err := wh.AppendRows("db", "t", rows); err != nil {
				t.Fatal(err)
			}
			docs = append(docs, fileDocs)
			clock.Advance(time.Hour)
		}
		clock.Advance(time.Hour)
		e := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("db"), sqlengine.WithParallelism(2))
		return e, wh, clock, docs
	}

	// Both deployments are built from the same RNG stream, so rebuild with
	// a fixed sub-seed for identical data.
	dataSeed := rng.Int63()
	rng = rand.New(rand.NewSource(dataSeed))
	plainEngine, _, _, _ := build()
	rng = rand.New(rand.NewSource(dataSeed))
	maxEngine, _, _, _ := build()
	m := New(maxEngine, Config{BudgetBytes: 1 << 30, DefaultDB: "db"})

	// Cache a random subset of paths.
	rng = rand.New(rand.NewSource(seed*7 + 13))
	allPaths := []string{"$.a", "$.b", "$.c", "$.d", "$.nested.x", "$.nested"}
	var profiles []*PathProfile
	for _, p := range allPaths {
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

	// Random queries over the paths.
	queries := []string{
		`SELECT id, get_json_object(doc, '$.a') a FROM db.t ORDER BY id`,
		`SELECT get_json_object(doc, '$.a') a, get_json_object(doc, '$.b') b,
		        get_json_object(doc, '$.nested.x') nx
		 FROM db.t WHERE get_json_object(doc, '$.nested.x') > 50 ORDER BY id`,
		`SELECT get_json_object(doc, '$.c') c, COUNT(*) n
		 FROM db.t GROUP BY get_json_object(doc, '$.c') ORDER BY c`,
		`SELECT tag, COUNT(get_json_object(doc, '$.d')) n
		 FROM db.t GROUP BY tag ORDER BY tag`,
		`SELECT id FROM db.t WHERE get_json_object(doc, '$.a') IS NOT NULL ORDER BY id`,
		`SELECT get_json_object(doc, '$.nested') o FROM db.t ORDER BY id LIMIT 7`,
		`SELECT COUNT(*) n FROM db.t a JOIN db.t b ON a.id = b.id
		 WHERE get_json_object(a.doc, '$.nested.x') >= 0`,
	}
	for _, sql := range queries {
		rp, _, err := plainEngine.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("plain %q: %v", sql, err)
		}
		rm, _, err := m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("maxson %q: %v", sql, err)
		}
		if rp.String() != rm.String() {
			t.Fatalf("seed %d: results differ for %q\ncached=%v\nplain:\n%s\nmaxson:\n%s",
				seed, sql, cachedPaths(profiles), rp.String(), rm.String())
		}
	}

	// Append one more file, then re-check (fallback path equivalence).
	newRows := [][]datum.Datum{{datum.Int(9999), datum.Str("g0"), datum.Str(`{"a":1,"nested":{"x":5}}`)}}
	if _, err := plainEngine.Warehouse().AppendRows("db", "t", newRows); err != nil {
		t.Fatal(err)
	}
	if _, err := maxEngine.Warehouse().AppendRows("db", "t", newRows); err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		rp, _, err := plainEngine.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		rm, _, err := m.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if rp.String() != rm.String() {
			t.Fatalf("seed %d post-append: results differ for %q", seed, sql)
		}
	}
}

func cachedPaths(profiles []*PathProfile) []string {
	var out []string
	for _, p := range profiles {
		out = append(out, p.Key.Path)
	}
	return out
}
