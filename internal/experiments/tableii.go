// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): the workload studies (Fig 2-4), the predictor comparison
// (Tables III-IV), cache-budget sweeps (Fig 11, Table V), phase breakdowns
// (Fig 12), plan-generation overhead (Fig 13), the online-LRU comparison
// (Fig 14), and the parser comparison (Fig 15).
//
// Experiments run at a configurable scale; budgets are expressed as
// fractions of the total MPJP cache footprint so the paper's 100-400 GB
// levels map onto laptop-sized tables while preserving the coverage
// fractions that drive every Fig 11 / Table V conclusion.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/sjson"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
	"repro/internal/warehouse"
)

// QuerySpec describes one of Table II's ten queries: the JSON shape of its
// table and the query over it.
type QuerySpec struct {
	Name       string
	Table      string
	PathCount  int // "JSONPath number"
	PropCount  int // "Property number in JSON"
	Nesting    int // "Nesting level"
	TargetSize int // "Average JSON size (Byte)"
	// HasJSONPredicate marks queries whose WHERE clause filters on a JSON
	// value (Q2 and Q9 per §V-C, enabling pushdown).
	HasJSONPredicate bool
	// Aggregate marks group-by queries.
	Aggregate bool
}

// TableII lists the paper's ten queries.
func TableII() []QuerySpec {
	return []QuerySpec{
		{Name: "Q1", Table: "t01", PathCount: 11, PropCount: 11, Nesting: 1, TargetSize: 408},
		{Name: "Q2", Table: "t02", PathCount: 10, PropCount: 17, Nesting: 1, TargetSize: 655, HasJSONPredicate: true, Aggregate: true},
		{Name: "Q3", Table: "t03", PathCount: 10, PropCount: 206, Nesting: 4, TargetSize: 4830},
		{Name: "Q4", Table: "t04", PathCount: 1, PropCount: 215, Nesting: 4, TargetSize: 4736},
		{Name: "Q5", Table: "t05", PathCount: 12, PropCount: 26, Nesting: 3, TargetSize: 582},
		{Name: "Q6", Table: "t06", PathCount: 29, PropCount: 107, Nesting: 5, TargetSize: 2031},
		{Name: "Q7", Table: "t07", PathCount: 3, PropCount: 12, Nesting: 2, TargetSize: 252},
		{Name: "Q8", Table: "t08", PathCount: 5, PropCount: 17, Nesting: 1, TargetSize: 368},
		{Name: "Q9", Table: "t09", PathCount: 1, PropCount: 319, Nesting: 3, TargetSize: 21459, HasJSONPredicate: true},
		{Name: "Q10", Table: "t10", PathCount: 8, PropCount: 90, Nesting: 1, TargetSize: 8692},
	}
}

// Workload is the materialized Table II environment: one warehouse holding
// the ten tables plus the SQL of each query.
type Workload struct {
	WH    *warehouse.Warehouse
	Clock *simtime.Sim
	Specs []QuerySpec
	SQL   map[string]string   // query name -> SQL
	Paths map[string][]string // query name -> JSONPaths used
	Rows  int
	DB    string
}

// BuildWorkload materializes the ten tables with rowsPerTable rows each.
// JSON documents follow each spec's property count, nesting level, and
// average size.
func BuildWorkload(rowsPerTable int, seed int64) *Workload {
	bed := testbed.New(testbed.Config{Start: time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC), RowGroupRows: 256})
	w := &Workload{
		WH: bed.WH, Clock: bed.Clock, Specs: TableII(),
		SQL:   map[string]string{},
		Paths: map[string][]string{},
		Rows:  rowsPerTable,
		DB:    "prod",
	}
	rng := rand.New(rand.NewSource(seed))
	tables := make([]testbed.Table, len(w.Specs))
	for i, spec := range w.Specs {
		tables[i] = w.buildTable(spec, rng)
	}
	if err := bed.Load(0, tables...); err != nil {
		panic(err)
	}
	// Data was loaded "yesterday": queries never touch same-day data, and
	// caches populated after this moment are valid.
	bed.Clock.Advance(24 * time.Hour)
	return w
}

// buildTable generates one table and writes its query.
func (w *Workload) buildTable(spec QuerySpec, rng *rand.Rand) testbed.Table {
	table := testbed.Table{DB: w.DB, Name: spec.Table, Schema: orc.Schema{Columns: []orc.Column{
		{Name: "id", Type: datum.TypeInt64},
		{Name: "ds", Type: datum.TypeString},
		{Name: "payload", Type: datum.TypeString},
	}}}
	shape := planShape(spec)
	shape.totalRows = w.Rows

	// Three part files, mirroring multi-split tables.
	perFile := (w.Rows + 2) / 3
	written := 0
	rowID := 0
	for f := 0; f < 3 && written < w.Rows; f++ {
		n := perFile
		if written+n > w.Rows {
			n = w.Rows - written
		}
		rows := make([][]datum.Datum, n)
		for i := range rows {
			doc := genDoc(shape, rowID, rng)
			rows[i] = []datum.Datum{
				datum.Int(int64(rowID)),
				datum.Str(fmt.Sprintf("2019030%d", f+1)),
				datum.Str(doc),
			}
			rowID++
		}
		table.Parts = append(table.Parts, rows)
		written += n
	}

	// The query: project PathCount paths; Q2 aggregates, Q2/Q9 filter on a
	// JSON value.
	paths := shape.queryPaths(spec.PathCount)
	w.Paths[spec.Name] = paths
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if spec.Aggregate {
		sb.WriteString(fmt.Sprintf("get_json_object(payload, '%s') k, COUNT(*) c", paths[0]))
	} else {
		for i, p := range paths {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(fmt.Sprintf("get_json_object(payload, '%s') v%d", p, i))
		}
	}
	sb.WriteString(fmt.Sprintf(" FROM %s.%s", w.DB, spec.Table))
	if spec.HasJSONPredicate {
		// metric0 is uniform over [0, 1000); > 900 keeps ~10%.
		sb.WriteString(" WHERE get_json_object(payload, '$.metric0') > 900")
		if !contains(paths, "$.metric0") {
			w.Paths[spec.Name] = append(w.Paths[spec.Name], "$.metric0")
		}
	}
	if spec.Aggregate {
		sb.WriteString(fmt.Sprintf(" GROUP BY get_json_object(payload, '%s') ORDER BY k", paths[0]))
	} else {
		sb.WriteString(fmt.Sprintf(" ORDER BY get_json_object(payload, '%s') DESC LIMIT 10", paths[0]))
	}
	w.SQL[spec.Name] = sb.String()

	// QW: the wildcard companion query over Q3's table, projecting every
	// event value through the array-iteration trie nodes. Its path is never
	// observed by the collector, so it always runs on the uncached fallback
	// lane — the stream-vs-tree contrast Fig 15 isolates.
	if spec.Name == "Q3" {
		w.Paths[WildcardQuery] = []string{"$.events[*].v"}
		w.SQL[WildcardQuery] = fmt.Sprintf(
			"SELECT id, get_json_object(payload, '$.events[*].v') ev FROM %s.%s ORDER BY ev DESC LIMIT 10",
			w.DB, spec.Table)
	}
	return table
}

// WildcardQuery names the Fig 15 wildcard companion query (over Q3's table).
const WildcardQuery = "QW"

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// docShape captures the generated document layout for one table.
type docShape struct {
	topProps   int // scalar properties at the top level
	nestProps  int // properties inside the nested chain
	nesting    int
	fillLen    int // filler string length tuning the average size
	totalRows  int // table size, for position-correlated metrics
	arrayItems int // elements of the "events" array (0 = no array)
}

// planShape distributes properties across nesting levels and solves for a
// filler length that approximates the target average size.
func planShape(spec QuerySpec) docShape {
	s := docShape{nesting: spec.Nesting}
	if spec.Nesting <= 1 {
		s.topProps = spec.PropCount
	} else {
		s.topProps = spec.PropCount * 2 / 3
		s.nestProps = spec.PropCount - s.topProps
	}
	// Rough per-property overhead: key (~10B) + quotes/colon/comma (~6B).
	overhead := spec.PropCount * 16
	remaining := spec.TargetSize - overhead
	if remaining < spec.PropCount {
		remaining = spec.PropCount
	}
	s.fillLen = remaining / spec.PropCount
	if s.fillLen < 1 {
		s.fillLen = 1
	}
	// Q3's sale logs carry an array of event objects, the target of the
	// wildcard query (QW) that exercises the array-iteration trie nodes.
	if spec.Name == "Q3" {
		s.arrayItems = 6
	}
	return s
}

// genDoc builds one document of the shape. Property names are stable
// (field000...) so JSONPaths resolve on every row; values mix numbers and
// filler strings. metric0/metric1 are numeric fields used by predicates.
func genDoc(s docShape, rowID int, rng *rand.Rand) string {
	obj := sjson.Object()
	// metric0 grows with row position (like a timestamp or sequence id in
	// production logs), so selective predicates cluster into few row groups
	// and min/max pruning has traction — the Fig 12 pushdown setting.
	base := 0
	if s.totalRows > 0 {
		base = rowID * 990 / s.totalRows
	}
	obj.Set("metric0", sjson.Int(int64(base+rng.Intn(10))))
	obj.Set("metric1", sjson.Int(int64(rowID%97)))
	filler := strings.Repeat("x", s.fillLen)
	for i := 0; i < s.topProps; i++ {
		name := fmt.Sprintf("field%03d", i)
		if i%4 == 0 {
			obj.Set(name, sjson.Int(int64(rng.Intn(100000))))
		} else {
			obj.Set(name, sjson.String(filler))
		}
	}
	if s.arrayItems > 0 {
		// An array of small event objects: the wildcard query projects
		// $.events[*].v across them.
		events := sjson.Array()
		for i := 0; i < s.arrayItems; i++ {
			ev := sjson.Object()
			ev.Set("k", sjson.String(fmt.Sprintf("e%d", i)))
			ev.Set("v", sjson.Int(int64((rowID*7+i*13)%1000)))
			events.Append(ev)
		}
		obj.Set("events", events)
	}
	if s.nesting > 1 {
		// A chain of nested objects, properties distributed along it.
		cur := obj
		perLevel := s.nestProps / (s.nesting - 1)
		if perLevel < 1 {
			perLevel = 1
		}
		for lvl := 1; lvl < s.nesting; lvl++ {
			child := sjson.Object()
			for i := 0; i < perLevel; i++ {
				name := fmt.Sprintf("n%dfield%03d", lvl, i)
				if i%3 == 0 {
					child.Set(name, sjson.Int(int64(rng.Intn(1000))))
				} else {
					child.Set(name, sjson.String(filler))
				}
			}
			cur.Set(fmt.Sprintf("nest%d", lvl), child)
			cur = child
		}
	}
	return sjson.Serialize(obj)
}

// queryPaths returns the JSONPaths a query projects: a mix of top-level and
// (when nested) deep paths, deterministic per shape.
func (s docShape) queryPaths(n int) []string {
	var out []string
	for i := 0; i < n && i < s.topProps; i++ {
		out = append(out, fmt.Sprintf("$.field%03d", i))
	}
	// Deep paths when the top level runs out or the table is nested.
	lvl := 1
	for len(out) < n && s.nesting > 1 {
		prefix := "$"
		for l := 1; l <= lvl; l++ {
			prefix += fmt.Sprintf(".nest%d", l)
		}
		out = append(out, fmt.Sprintf("%s.n%dfield000", prefix, lvl))
		lvl++
		if lvl >= s.nesting {
			lvl = 1
		}
	}
	for len(out) < n {
		out = append(out, "$.metric1")
		break
	}
	return out
}

// NewEngine builds an engine over the workload with the given backend.
func (w *Workload) NewEngine(backend sqlengine.ParserBackend) *sqlengine.Engine {
	return sqlengine.NewEngine(w.WH,
		sqlengine.WithDefaultDB(w.DB),
		sqlengine.WithBackend(backend),
		sqlengine.WithParallelism(4))
}
