package sqlengine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/orc"
	"repro/internal/testbed"
)

// newBenchEngine builds a plain-column table (no JSON payloads) so these
// benchmarks measure executor overhead — batch plumbing, selection vectors,
// key encoding — rather than parse cost, which dominates the Table II
// workloads and would mask the scan-path allocations we care about here.
func newBenchEngine(rows int, opts ...EngineOption) *Engine {
	table := testbed.Table{DB: "bench", Name: "t", Schema: orc.Schema{Columns: []orc.Column{
		{Name: "a", Type: datum.TypeInt64},
		{Name: "tag", Type: datum.TypeString},
		{Name: "s", Type: datum.TypeString},
	}}}
	const fileRows = 2048
	for off := 0; off < rows; off += fileRows {
		batch := make([][]datum.Datum, 0, min(fileRows, rows-off))
		for id := off; id < off+cap(batch); id++ {
			batch = append(batch, []datum.Datum{
				datum.Int(int64(id)),
				datum.Str(fmt.Sprintf("g%d", id%8)),
				datum.Str(fmt.Sprintf("val-%04d", id%100)),
			})
		}
		table.Parts = append(table.Parts, batch)
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 512})
	if err := bed.Load(time.Hour, table); err != nil {
		panic(err)
	}
	return NewEngine(bed.WH, append([]EngineOption{
		WithDefaultDB("bench"),
		WithParallelism(1),
	}, opts...)...)
}

const execBenchRows = 8192

var execBenchQueries = []struct {
	name string
	sql  string
}{
	{"scan", `SELECT a, tag, s FROM bench.t`},
	{"filter", `SELECT a, s FROM bench.t WHERE a >= 2048 AND tag = 'g3'`},
	{"agg", `SELECT tag, COUNT(*) n, SUM(a) total, MIN(s) lo FROM bench.t GROUP BY tag`},
	{"group2", `SELECT tag, s, COUNT(*) n, MAX(a) hi FROM bench.t GROUP BY tag, s`},
	{"join", `SELECT x.a, y.s FROM bench.t x JOIN bench.t y ON x.a = y.a WHERE x.tag = 'g3'`},
}

func benchExecQueries(b *testing.B, e *Engine) {
	for _, q := range execBenchQueries {
		q := q
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, _, err := e.QueryCtx(context.Background(), q.sql)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Rows) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkExecBatch measures the vectorized pipeline at several batch
// sizes; size1 degenerates to one row per batch and bounds the pipeline's
// fixed overhead.
func BenchmarkExecBatch(b *testing.B) {
	for _, size := range []int{1024, 128, 1} {
		size := size
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			benchExecQueries(b, newBenchEngine(execBenchRows, WithBatchSize(size)))
		})
	}
}

// BenchmarkCachedScan measures the read path a fully cached query takes
// below the combiner: a table shaped like a Maxson cache table (every
// column a string of already-extracted values, 10 part files of 1,000-row
// groups, like bench/'s hot tables), scanned by the hot_cached query shapes.
// B/op is the number to watch: nothing on this path should be proportional
// to the rows scanned.
func BenchmarkCachedScan(b *testing.B) {
	table := testbed.Table{DB: "bench", Name: "cached", Schema: orc.Schema{Columns: []orc.Column{
		{Name: "k", Type: datum.TypeString},
		{Name: "v", Type: datum.TypeString},
		{Name: "w", Type: datum.TypeString},
	}}}
	for file := 0; file < 10; file++ {
		rows := make([][]datum.Datum, 1000)
		for i := range rows {
			id := file*1000 + i
			rows[i] = []datum.Datum{
				datum.Str(fmt.Sprintf("region-%02d", id%16)),
				datum.Str(fmt.Sprintf("%d.%02d", id*7%5000, id%100)),
				datum.Str(fmt.Sprintf("%d", id%977)),
			}
		}
		table.Parts = append(table.Parts, rows)
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 1000})
	if err := bed.Load(0, table); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(bed.WH, WithDefaultDB("bench"), WithParallelism(1))
	for _, q := range []struct{ name, sql string }{
		{"group", `SELECT k, COUNT(*) c, MAX(cast_double(v)) m FROM bench.cached GROUP BY k`},
		{"filter", `SELECT COUNT(*) c FROM bench.cached WHERE cast_double(w) > 500`},
	} {
		q := q
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, _, err := e.QueryCtx(context.Background(), q.sql)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Rows) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}
