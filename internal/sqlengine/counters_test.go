package sqlengine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datum"
	"repro/internal/testbed"
)

// counterEngine returns a parallelism-1 engine over db.t (id, doc): three
// part files of 40 rows in row groups of 16, ids counting from 0. Document
// id holds "a": id, except every fourth, which lacks it, and every fifth
// also holds "b": "x<id>".
func counterEngine(t *testing.T, batch int) *Engine {
	t.Helper()
	table := testbed.Table{DB: "db", Name: "t", Schema: testbed.IDDoc}
	for s, id := 0, 0; s < 3; s++ {
		part := make([][]datum.Datum, 40)
		for i := range part {
			doc := `{"pad":1}`
			switch {
			case id%4 == 3:
			case id%5 == 0:
				doc = fmt.Sprintf(`{"a":%d,"b":"x%d"}`, id, id)
			default:
				doc = fmt.Sprintf(`{"a":%d}`, id)
			}
			part[i] = []datum.Datum{datum.Int(int64(id)), datum.Str(doc)}
			id++
		}
		table.Parts = append(table.Parts, part)
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 16})
	if err := bed.Load(0, table); err != nil {
		t.Fatal(err)
	}
	return NewEngine(bed.WH, WithDefaultDB("db"), WithParallelism(1), WithBatchSize(batch))
}

// TestExecutorCountersArePinned pins the rows, the get_json_object calls and
// documents parsed, and the row operations of the executor's plan shapes at
// batch sizes 1 and 1024. A call is counted once per call site per row it is
// evaluated on: an AND evaluates its right side only where its left is not
// false, an OR only where its left is not true, and a join key after the
// first only where the keys before it are not NULL. Under an unordered LIMIT
// the counting stops at the row that fills the LIMIT, in a join at the probe
// row whose match fills it.
func TestExecutorCountersArePinned(t *testing.T) {
	type counts struct{ rows, calls, docs, rowOps int64 }
	for _, tc := range []struct {
		name, sql string
		want      map[int]counts // by batch size
	}{
		{"filtered limit", `SELECT id FROM db.t WHERE cast_bigint(get_json_object(doc, '$.a')) % 3 = 0 LIMIT 10`,
			map[int]counts{1: {10, 37, 37, 37}, 1024: {10, 37, 40, 37}}},
		{"filtered join limit", `SELECT x.id, get_json_object(y.doc, '$.b') b FROM db.t x JOIN db.t y
			ON cast_bigint(get_json_object(x.doc, '$.a')) = y.id AND x.id = y.id
			WHERE get_json_object(y.doc, '$.b') IS NOT NULL OR x.id < 3 LIMIT 4`,
			map[int]counts{1: {4, 15, 126, 125}, 1024: {4, 15, 160, 125}}},
		{"or not like is null", `SELECT id, get_json_object(doc, '$.b') b FROM db.t
			WHERE get_json_object(doc, '$.b') LIKE 'x1%' OR NOT (cast_double(get_json_object(doc, '$.a')) < 100)
			AND get_json_object(doc, '$.a') IS NOT NULL`,
			map[int]counts{1: {16, 294, 120, 120}, 1024: {16, 294, 120, 120}}},
		{"arithmetic projection", `SELECT id * 2 + cast_bigint(get_json_object(doc, '$.a')) v,
			abs(id - 60) % 7 w FROM db.t ORDER BY v DESC LIMIT 5`,
			map[int]counts{1: {5, 240, 120, 1041}, 1024: {5, 240, 120, 1041}}},
		{"two-key group", `SELECT id % 3 k1, get_json_object(doc, '$.b') k2, COUNT(*) n,
			SUM(cast_double(get_json_object(doc, '$.a')) + 1) s FROM db.t
			WHERE get_json_object(doc, '$.a') IS NULL OR id % 2 = 0 GROUP BY id % 3, get_json_object(doc, '$.b')`,
			map[int]counts{1: {15, 300, 120, 156}, 1024: {15, 300, 120, 156}}},
		{"having", `SELECT id % 5 k, COUNT(*) n, MAX(get_json_object(doc, '$.a')) m FROM db.t GROUP BY id % 5
			HAVING COUNT(get_json_object(doc, '$.a')) > 15 AND MIN(id) < 3 ORDER BY k`,
			map[int]counts{1: {3, 240, 120, 140}, 1024: {3, 240, 120, 140}}},
	} {
		for _, batch := range []int{1, 1024} {
			rs, m, err := counterEngine(t, batch).QueryCtx(context.Background(), tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got := counts{int64(len(rs.Rows)), m.Parse.Calls.Load(), m.Parse.Docs.Load(), m.RowOps.Load()}
			if got != tc.want[batch] {
				t.Errorf("%s, batch %d: rows, calls, docs, row ops = %+v, want %+v", tc.name, batch, got, tc.want[batch])
			}
		}
	}
}
