package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// ExecBenchRow is one (query, execution mode) cell: wall time and allocator
// pressure per query execution, as measured by testing.Benchmark.
type ExecBenchRow struct {
	Query       string
	Mode        string
	NsPerOp     int64
	AllocsPerOp int64
	BytesPerOp  int64
}

// ExecBenchResult compares the vectorized executor (at several batch sizes)
// against the legacy row-at-a-time adapter on a plain-column table, where
// executor overhead is not masked by JSON parse cost.
type ExecBenchResult struct {
	Rows []ExecBenchRow
}

func (r *ExecBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %12s %12s %12s\n",
		"query", "mode", "ns/op", "allocs/op", "B/op")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-10s %12d %12d %12d\n",
			row.Query, row.Mode, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	}
	return strings.TrimRight(b.String(), "\n")
}

// buildExecBenchEngine materializes a plain-column table (BIGINT + two
// strings, no JSON) so the measurement isolates scan/filter/aggregate
// plumbing rather than parsing.
func buildExecBenchEngine(rows int, seed int64, opts ...sqlengine.EngineOption) (*sqlengine.Engine, error) {
	clock := simtime.NewSim(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New(dfs.WithClock(clock))
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 512}))
	wh.CreateDatabase("bench")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "a", Type: datum.TypeInt64},
		{Name: "tag", Type: datum.TypeString},
		{Name: "s", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("bench", "t", schema); err != nil {
		return nil, err
	}
	const fileRows = 2048
	for off := 0; off < rows; off += fileRows {
		n := fileRows
		if rows-off < n {
			n = rows - off
		}
		batch := make([][]datum.Datum, 0, n)
		for i := 0; i < n; i++ {
			id := int64(off+i) + seed%97
			batch = append(batch, []datum.Datum{
				datum.Int(id),
				datum.Str(fmt.Sprintf("g%d", id%8)),
				datum.Str(fmt.Sprintf("val-%04d", id%100)),
			})
		}
		if _, err := wh.AppendRows("bench", "t", batch); err != nil {
			return nil, err
		}
		clock.Advance(time.Hour)
	}
	return sqlengine.NewEngine(wh, append([]sqlengine.EngineOption{
		sqlengine.WithDefaultDB("bench"),
		sqlengine.WithParallelism(1),
	}, opts...)...), nil
}

// RunExecBench measures scan, filter, and aggregate queries under the
// vectorized pipeline at batch sizes 1024/128/1 and under the legacy
// row-at-a-time adapter. Feeds BENCH_exec.json.
func RunExecBench(ctx context.Context, rows int, seed int64) (*ExecBenchResult, error) {
	// Below a few row groups the filter query can select nothing; clamp so
	// every cell measures real work.
	if rows < 64 {
		rows = 64
	}
	queries := []struct {
		name string
		sql  string
	}{
		{"scan", `SELECT a, tag, s FROM bench.t`},
		{"filter", fmt.Sprintf(
			`SELECT a, s FROM bench.t WHERE a >= %d AND tag = 'g3'`, rows/2)},
		{"agg", `SELECT tag, COUNT(*) n, SUM(a) total, MIN(s) lo FROM bench.t GROUP BY tag`},
	}
	modes := []struct {
		name string
		opts []sqlengine.EngineOption
	}{
		{"batch1024", []sqlengine.EngineOption{sqlengine.WithBatchSize(1024)}},
		{"batch128", []sqlengine.EngineOption{sqlengine.WithBatchSize(128)}},
		{"batch1", []sqlengine.EngineOption{sqlengine.WithBatchSize(1)}},
		{"row", []sqlengine.EngineOption{sqlengine.WithRowAtATime(true)}},
	}

	out := &ExecBenchResult{}
	for _, mode := range modes {
		e, err := buildExecBenchEngine(rows, seed, mode.opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", mode.name, err)
		}
		for _, q := range queries {
			var qErr error
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rs, _, err := e.QueryCtx(ctx, q.sql)
					if err != nil {
						qErr = fmt.Errorf("%s %s: %w", mode.name, q.name, err)
						b.FailNow()
					}
					if len(rs.Rows) == 0 {
						qErr = fmt.Errorf("%s %s: empty result", mode.name, q.name)
						b.FailNow()
					}
				}
			})
			if qErr != nil {
				return nil, qErr
			}
			out.Rows = append(out.Rows, ExecBenchRow{
				Query:       q.name,
				Mode:        mode.name,
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			})
		}
	}
	return out, nil
}
