package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/orc"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
)

// ObsBenchRow is one observability-primitive measurement.
type ObsBenchRow struct {
	Op          string
	NsPerOp     int64
	AllocsPerOp int64
	BytesPerOp  int64
}

// ObsBenchResult quantifies the hot-path cost of the observability substrate:
// metric updates, span annotation, flight-recorder begin/finish, and the
// end-to-end per-query overhead of running with the recorder on versus off.
type ObsBenchResult struct {
	Rows []ObsBenchRow
	// QueryOverheadPct is the relative wall-time cost of flight recording on
	// a full engine query ((recorded - bare) / bare * 100).
	QueryOverheadPct float64
}

func (r *ObsBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %12s\n", "op", "ns/op", "allocs/op", "B/op")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %12d %12d %12d\n",
			row.Op, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	}
	fmt.Fprintf(&b, "flight recorder query overhead: %+.1f%%", r.QueryOverheadPct)
	return b.String()
}

// obsBenchSystem builds a small queryable stack — warehouse, engine, core —
// with or without a flight recorder, and returns it with a representative
// aggregation query over a JSON column.
func obsBenchSystem(withRecorder bool) (*core.Maxson, string, error) {
	rows := make([][]datum.Datum, 0, 512)
	for i := 0; i < 512; i++ {
		rows = append(rows, []datum.Datum{
			datum.Str("d001"),
			datum.Str(fmt.Sprintf(`{"k":"g%d","v":%d}`, i%8, i)),
		})
	}
	bed := testbed.New(testbed.Config{RowGroupRows: 256})
	if err := bed.Load(24*time.Hour, testbed.Table{DB: "bench", Name: "t", Schema: orc.Schema{Columns: []orc.Column{
		{Name: "ds", Type: datum.TypeString},
		{Name: "payload", Type: datum.TypeString},
	}}, Parts: [][][]datum.Datum{rows}}); err != nil {
		return nil, "", err
	}

	e := sqlengine.NewEngine(bed.WH, sqlengine.WithDefaultDB("bench"))
	reg := obs.NewRegistry()
	var rec *flight.Recorder
	if withRecorder {
		rec = flight.New(reg, flight.Options{})
	}
	m := core.New(e, core.Config{DefaultDB: "bench", Obs: reg, Flight: rec})
	sql := `SELECT get_json_object(payload, '$.k') k, COUNT(*) c FROM bench.t GROUP BY get_json_object(payload, '$.k')`
	return m, sql, nil
}

// RunObsBench measures the observability substrate's hot-path costs. Feeds
// BENCH_obs.json; the CI bench smoke runs it at small scale.
func RunObsBench(ctx context.Context) (*ObsBenchResult, error) {
	out := &ObsBenchResult{}
	add := func(op string, res testing.BenchmarkResult) {
		out.Rows = append(out.Rows, ObsBenchRow{
			Op:          op,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}

	// Primitive costs: the operations engine hot loops pay per batch/query.
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_ops_total")
	add("counter.Inc", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	}))
	hist := reg.Histogram("bench_lat_ns")
	add("histogram.Observe", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hist.Observe(int64(i))
		}
	}))
	root := obs.NewSpan("bench")
	add("span.Child+Set", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root.Child("work").SetInt("rows", int64(i))
		}
	}))

	// Flight recorder per-query cost, recorder off vs on. The off case is
	// the nil-receiver fast path every query pays when recording is disabled.
	var offRec *flight.Recorder
	add("flight.off(begin+finish)", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := offRec.Begin("SELECT 1")
			a.Finish(flight.Totals{}, nil)
		}
	}))
	onRec := flight.New(reg, flight.Options{})
	add("flight.on(begin+finish)", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := onRec.Begin("SELECT 1")
			a.SetMode("raw")
			a.AddStage("exec", time.Microsecond)
			a.Finish(flight.Totals{RowsOut: 1}, nil)
		}
	}))

	// End-to-end: a full query through core with the recorder off vs on.
	bare, sql, err := obsBenchSystem(false)
	if err != nil {
		return nil, fmt.Errorf("obs bench build (recorder off): %w", err)
	}
	var qErr error
	bareRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := bare.QueryCtx(ctx, sql); err != nil {
				qErr = err
				b.FailNow()
			}
		}
	})
	if qErr != nil {
		return nil, fmt.Errorf("obs bench query (recorder off): %w", qErr)
	}
	add("query.recorder-off", bareRes)

	rec, sql, err := obsBenchSystem(true)
	if err != nil {
		return nil, fmt.Errorf("obs bench build (recorder on): %w", err)
	}
	recRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rec.QueryCtx(ctx, sql); err != nil {
				qErr = err
				b.FailNow()
			}
		}
	})
	if qErr != nil {
		return nil, fmt.Errorf("obs bench query (recorder on): %w", qErr)
	}
	add("query.recorder-on", recRes)
	if bareRes.NsPerOp() > 0 {
		out.QueryOverheadPct = 100 * float64(recRes.NsPerOp()-bareRes.NsPerOp()) / float64(bareRes.NsPerOp())
	}
	return out, nil
}
