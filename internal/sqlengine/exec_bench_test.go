package sqlengine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/warehouse"
)

// newBenchEngine builds a plain-column table (no JSON payloads) so these
// benchmarks measure executor overhead — batch plumbing, selection vectors,
// key encoding — rather than parse cost, which dominates the Table II
// workloads and would mask the scan-path allocations we care about here.
func newBenchEngine(rows int, opts ...EngineOption) *Engine {
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 512}))
	wh.CreateDatabase("bench")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "a", Type: datum.TypeInt64},
		{Name: "tag", Type: datum.TypeString},
		{Name: "s", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("bench", "t", schema); err != nil {
		panic(err)
	}
	const fileRows = 2048
	for off := 0; off < rows; off += fileRows {
		n := fileRows
		if rows-off < n {
			n = rows - off
		}
		batch := make([][]datum.Datum, 0, n)
		for i := 0; i < n; i++ {
			id := off + i
			batch = append(batch, []datum.Datum{
				datum.Int(int64(id)),
				datum.Str(fmt.Sprintf("g%d", id%8)),
				datum.Str(fmt.Sprintf("val-%04d", id%100)),
			})
		}
		if _, err := wh.AppendRows("bench", "t", batch); err != nil {
			panic(err)
		}
		clock.Advance(time.Hour)
	}
	return NewEngine(wh, append([]EngineOption{
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
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 1000}))
	wh.CreateDatabase("bench")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "k", Type: datum.TypeString},
		{Name: "v", Type: datum.TypeString},
		{Name: "w", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("bench", "cached", schema); err != nil {
		b.Fatal(err)
	}
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
		if _, err := wh.AppendRows("bench", "cached", rows); err != nil {
			b.Fatal(err)
		}
	}
	e := NewEngine(wh, WithDefaultDB("bench"), WithParallelism(1))
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
