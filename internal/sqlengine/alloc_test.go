package sqlengine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datum"
	"repro/internal/leakcheck"
	"repro/internal/orc"
	"repro/internal/testbed"
	"repro/internal/warehouse"
)

// evalRow evaluates e over every row of b with ev and returns row i's value.
func evalRow(ev *evaluator, e Expr, b *RowBatch, i int) datum.Datum {
	m := ev.top
	v := ev.value(e, ev.begin(b, b.size))
	d := v.at(i)
	ev.top = m
	return d
}

// TestScalarFunctionsDoNotAllocate pins the scalar functions' cost on the
// cached read path, where cast_double(cached_column) runs once per batch per
// call site: once the evaluator's vectors are grown, evaluating the unary
// functions over a batch allocates nothing.
func TestScalarFunctionsDoNotAllocate(t *testing.T) {
	schema := RowSchema{Cols: []RowCol{
		{Name: "s", Type: datum.TypeString},
		{Name: "n", Type: datum.TypeInt64},
	}}
	b := NewRowBatch(2, 8)
	for i := range b.size {
		b.Cols[0][i], b.Cols[1][i] = datum.Str("1234.5"), datum.Int(-42)
	}
	var w scanWorker
	defer w.release()
	ev := w.evaluator()
	for _, tc := range []struct {
		fn, col string
		want    datum.Datum
	}{
		{"length", "s", datum.Int(6)},
		{"abs", "n", datum.Int(42)},
		{"abs", "s", datum.Float(1234.5)},
		{"cast_double", "s", datum.Float(1234.5)},
		{"cast_bigint", "n", datum.Int(-42)},
		{"cast_bigint", "s", datum.Int(1234)},
		{"cast_double", "n", datum.Float(-42)},
	} {
		call := &FuncCall{Name: tc.fn, Args: []Expr{&ColumnRef{Name: tc.col}}}
		if err := Bind(call, schema); err != nil {
			t.Fatal(err)
		}
		if got := evalRow(ev, call, b, 3); !datum.Equal(got, tc.want) || got.Typ != tc.want.Typ {
			t.Errorf("%s(%s) = %+v, want %+v", tc.fn, tc.col, got, tc.want)
		}
		var sink datum.Datum
		if n := testing.AllocsPerRun(100, func() { sink = evalRow(ev, call, b, 3) }); n != 0 {
			t.Errorf("%s(%s) allocates %v times per batch, want 0", tc.fn, tc.col, n)
		}
		_ = sink
	}
}

// TestScalarFunctionArity holds the functions' arity rules: concat takes any
// number of arguments and is NULL if any is, and a unary function called with
// another arity is NULL.
func TestScalarFunctionArity(t *testing.T) {
	lit := func(s string) Expr { return &Literal{Value: datum.Str(s)} }
	null := &Literal{Value: datum.NullOf(datum.TypeString)}
	b := NewRowBatch(0, 2)
	var w scanWorker
	defer w.release()
	ev := w.evaluator()
	for _, tc := range []struct {
		call *FuncCall
		want datum.Datum
	}{
		{&FuncCall{Name: "concat"}, datum.Str("")},
		{&FuncCall{Name: "concat", Args: []Expr{lit("a"), lit("b"), lit("c")}}, datum.Str("abc")},
		{&FuncCall{Name: "concat", Args: []Expr{lit("a"), null, lit("c")}}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "length"}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "length", Args: []Expr{lit("a"), lit("bc")}}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "upper", Args: []Expr{lit("ab")}}, datum.Str("AB")},
		{&FuncCall{Name: "lower", Args: []Expr{null}}, datum.NullOf(datum.TypeString)},
		{&FuncCall{Name: "nosuch", Args: []Expr{lit("a")}}, datum.NullOf(datum.TypeString)},
	} {
		got := evalRow(ev, tc.call, b, 1)
		if got.Null != tc.want.Null || got.Typ != tc.want.Typ || got.S != tc.want.S {
			t.Errorf("%s = %+v, want %+v", tc.call, got, tc.want)
		}
	}
}

// TestColumnTailAllocatesPerQuery pins that the tail allocates nothing per
// batch: its vectors come from the worker's pooled evaluator, the filter
// narrows a pooled selection vector, a column is read in place and the group
// key is encoded into a reused buffer. Each shape over splits of one batch
// and of ten must allocate alike, so the ten-batch splits' extra nine batches
// cost nothing. The shapes are bench/'s aggregates over plain columns, and a
// two-key GROUP BY under an OR and a LIKE with an arithmetic argument.
func TestColumnTailAllocatesPerQuery(t *testing.T) {
	leakcheck.SkipUnderRace(t)
	const (
		splits = 3
		batch  = 64
	)
	engine := func(batchesPerSplit int) *Engine {
		table := testbed.Table{DB: "d", Name: "t", Schema: gxSchema}
		for s := 0; s < splits; s++ {
			rows := make([][]datum.Datum, batch*batchesPerSplit)
			for i := range rows {
				rows[i] = []datum.Datum{datum.Str(fmt.Sprintf("group-%d", i%4)), datum.Str(fmt.Sprintf("%d.5", i%10))}
			}
			table.Parts = append(table.Parts, rows)
		}
		return NewEngine(loadBed(t, table), WithDefaultDB("d"), WithParallelism(1), WithBatchSize(batch))
	}
	one, ten := engine(1), engine(10)
	// Row i of a split is (group-i%4, i%10 + 0.5), so a split holds the 20
	// (g, x) pairs whose g and x digits are both even or both odd. two-key
	// keeps the 13 of them with g = group-1 (x odd) or x < 5.
	for _, tc := range []struct {
		name, sql string
		rows      int
	}{
		{"group", "SELECT g k, COUNT(*) c, MAX(cast_double(x)) m FROM t GROUP BY g ORDER BY k", 4},
		{"topn", "SELECT g k, SUM(cast_double(x)) s FROM t GROUP BY g ORDER BY s DESC, k LIMIT 10", 4},
		{"filter", "SELECT COUNT(*) c FROM t WHERE cast_double(x) > 3", 1},
		{"nested", "SELECT g k, AVG(cast_double(x)) a FROM t GROUP BY g ORDER BY k", 4},
		{"filtered", "SELECT g, COUNT(*), SUM(cast_double(x)), MAX(cast_double(x)) FROM t WHERE cast_double(x) > 3 GROUP BY g", 4},
		{"two-key", "SELECT g, x, COUNT(*), SUM(cast_double(x) * 2 + 1) FROM t WHERE g LIKE '%-1' OR cast_double(x) < 5 GROUP BY g, x", 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(e *Engine) float64 {
				return testing.AllocsPerRun(20, func() {
					if rs := mustQuery(t, e, tc.sql); len(rs.Rows) != tc.rows {
						t.Fatalf("%d rows, want %d", len(rs.Rows), tc.rows)
					}
				})
			}
			a1, a10 := allocs(one), allocs(ten)
			t.Logf("%v allocations per query over one-batch splits, %v over ten-batch splits", a1, a10)
			if a10 != a1 {
				t.Errorf("the tail allocates %v times per batch, want 0", (a10-a1)/(9*splits))
			}
		})
	}
}

// gxSchema is the (g, x) string table of the allocation pins.
var gxSchema = orc.Schema{Columns: []orc.Column{
	{Name: "g", Type: datum.TypeString},
	{Name: "x", Type: datum.TypeString},
}}

// loadBed loads table into a fresh test bed of default row groups.
func loadBed(t *testing.T, table testbed.Table) *warehouse.Warehouse {
	t.Helper()
	bed := testbed.New(testbed.Config{})
	if err := bed.Load(0, table); err != nil {
		t.Fatal(err)
	}
	return bed.WH
}

// groupedSQL names every group of groupedEngine's table in every split.
const groupedSQL = "SELECT g, COUNT(*), MAX(x) FROM t GROUP BY g"

// groupedEngine returns a parallelism-1 engine over splits part files that
// each hold every one of groups groups twice, after one query has checked the
// answer (and grown the pooled tables).
func groupedEngine(t *testing.T, groups, splits int) *Engine {
	t.Helper()
	table := testbed.Table{DB: "d", Name: "t", Schema: gxSchema}
	for s := 0; s < splits; s++ {
		rows := make([][]datum.Datum, 0, 2*groups)
		for i := 0; i < 2*groups; i++ {
			rows = append(rows, []datum.Datum{datum.Str(fmt.Sprintf("group-%04d", i%groups)), datum.Str(fmt.Sprintf("%d", i*s))})
		}
		table.Parts = append(table.Parts, rows)
	}
	wh := loadBed(t, table)
	e := NewEngine(wh, WithDefaultDB("d"), WithParallelism(1))
	if rs := mustQuery(t, e, groupedSQL); len(rs.Rows) != groups || rs.Rows[0][1].I != int64(2*splits) {
		t.Fatalf("%d groups, first %v; want %d groups of %d rows", len(rs.Rows), rs.Rows[0], groups, 2*splits)
	}
	return e
}

// TestGroupedAggregationAllocsPerGroup pins what a group costs a partition: its
// key string, plus a fraction for the buffers a longer split makes the cursor
// grow — at most two allocations per (group × split), whatever the number of
// aggregates. (An aggState per group was seven: the header, five slices and
// the key.) The same query at two group counts cancels everything a query
// allocates once.
func TestGroupedAggregationAllocsPerGroup(t *testing.T) {
	leakcheck.SkipUnderRace(t)
	const splits = 4
	allocs := func(groups int) float64 {
		e := groupedEngine(t, groups, splits)
		return testing.AllocsPerRun(20, func() { mustQuery(t, e, groupedSQL) })
	}
	few, many := 16, 256
	perGroupSplit := (allocs(many) - allocs(few)) / float64((many-few)*splits)
	if perGroupSplit > 2 {
		t.Errorf("a group costs %.2f allocations per split, want at most 2", perGroupSplit)
	}
	t.Logf("%.2f allocations per (group × split)", perGroupSplit)
}

// TestGroupedAggregationBytesPerGroup pins the same cost in bytes, which is
// where pooling the aggregation tables shows: a warmed query's partitions take
// tables that earlier queries grew, so a group costs a partition its key
// string (16 B here), not a share of an index and three slabs built for it and
// dropped after the merge. The query at two group counts and two split counts
// leaves out what a query allocates once and what it allocates per group
// whatever the splits (the output row, its cloned strings). 30-41 B per
// (group × split) when written: the key string and the ORC cursor's chunk
// buffers, which grow with a split's rows (two per group here); 245-256 B
// while every partition built its table for every query.
func TestGroupedAggregationBytesPerGroup(t *testing.T) {
	leakcheck.SkipUnderRace(t)
	bytes := func(groups, splits int) float64 {
		e := groupedEngine(t, groups, splits)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			mustQuery(t, e, groupedSQL)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	few, many := 16, 256
	fewSplits, manySplits := 2, 6
	perGroup := func(splits int) float64 { return bytes(many, splits) - bytes(few, splits) }
	perGroupSplit := (perGroup(manySplits) - perGroup(fewSplits)) / float64((many-few)*(manySplits-fewSplits))
	if perGroupSplit > 64 {
		t.Errorf("a group costs %.0f B per split, want at most 64", perGroupSplit)
	}
	t.Logf("%.0f B per (group × split)", perGroupSplit)
}
