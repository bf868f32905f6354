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

// TestScalarFunctionsDoNotAllocate pins evalFunc's cost on the cached read
// path, where cast_double(cached_column) runs once per row per call site:
// evaluating the unary functions over a row allocates nothing. (The slice
// of evaluated arguments it used to build was 23 % of hot_cached's bytes.)
func TestScalarFunctionsDoNotAllocate(t *testing.T) {
	schema := RowSchema{Cols: []RowCol{
		{Name: "s", Type: datum.TypeString},
		{Name: "n", Type: datum.TypeInt64},
	}}
	row := []datum.Datum{datum.Str("1234.5"), datum.Int(-42)}
	ctx := &EvalContext{}
	for _, tc := range []struct {
		fn, col string
		want    datum.Datum
	}{
		{"length", "s", datum.Int(6)},
		{"abs", "n", datum.Int(42)},
		{"abs", "s", datum.Float(1234.5)},
		{"cast_double", "s", datum.Float(1234.5)},
		{"cast_bigint", "n", datum.Int(-42)},
		{"cast_double", "n", datum.Float(-42)},
	} {
		call := &FuncCall{Name: tc.fn, Args: []Expr{&ColumnRef{Name: tc.col}}}
		if err := Bind(call, schema); err != nil {
			t.Fatal(err)
		}
		if got := Eval(call, row, ctx); !datum.Equal(got, tc.want) || got.Typ != tc.want.Typ {
			t.Errorf("%s(%s) = %+v, want %+v", tc.fn, tc.col, got, tc.want)
		}
		var sink datum.Datum
		if n := testing.AllocsPerRun(100, func() { sink = Eval(call, row, ctx) }); n != 0 {
			t.Errorf("%s(%s) allocates %v times per row, want 0", tc.fn, tc.col, n)
		}
		_ = sink
	}
}

// TestScalarFunctionArity holds the behaviour the argument slice used to
// give for free: concat takes any number of arguments and is NULL if any is,
// and a unary function called with another arity is NULL.
func TestScalarFunctionArity(t *testing.T) {
	lit := func(s string) Expr { return &Literal{Value: datum.Str(s)} }
	null := &Literal{Value: datum.NullOf(datum.TypeString)}
	ctx := &EvalContext{}
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
		got := Eval(tc.call, nil, ctx)
		if got.Null != tc.want.Null || got.Typ != tc.want.Typ || got.S != tc.want.S {
			t.Errorf("%s = %+v, want %+v", tc.call, got, tc.want)
		}
	}
}

// TestColumnTailAllocatesPerQuery pins where the column tail allocates: once
// per plan, when it is compiled, and never per batch. Its vectors and group
// scratch come from a pool, the filter narrows the batch's own selection
// vector, and the group key is read from its column into a reused buffer. The
// same grouped, filtered query over splits of one batch and of ten must
// allocate alike, so the ten-batch splits' extra nine batches cost nothing.
func TestColumnTailAllocatesPerQuery(t *testing.T) {
	leakcheck.SkipUnderRace(t)
	const (
		splits = 3
		batch  = 64
		sql    = "SELECT g, COUNT(*), SUM(cast_double(x)), MAX(cast_double(x)) FROM t WHERE cast_double(x) > 3 GROUP BY g"
	)
	allocs := func(batchesPerSplit int) float64 {
		table := testbed.Table{DB: "d", Name: "t", Schema: gxSchema}
		for s := 0; s < splits; s++ {
			rows := make([][]datum.Datum, batch*batchesPerSplit)
			for i := range rows {
				rows[i] = []datum.Datum{datum.Str(fmt.Sprintf("group-%d", i%4)), datum.Str(fmt.Sprintf("%d.5", i%10))}
			}
			table.Parts = append(table.Parts, rows)
		}
		wh := loadBed(t, table)
		e := NewEngine(wh, WithDefaultDB("d"), WithParallelism(1), WithBatchSize(batch))
		if plan, _, err := e.PlanOnly(sql); err != nil || plan.tail == nil {
			t.Fatalf("plan %v, err %v: want a column tail", plan, err)
		}
		return testing.AllocsPerRun(20, func() {
			if rs := mustQuery(t, e, sql); len(rs.Rows) != 4 {
				t.Fatalf("%d groups, want 4", len(rs.Rows))
			}
		})
	}
	one, ten := allocs(1), allocs(10)
	t.Logf("%v allocations per query over one-batch splits, %v over ten-batch splits", one, ten)
	if ten != one {
		t.Errorf("the column tail allocates %v times per batch, want 0", (ten-one)/(9*splits))
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
