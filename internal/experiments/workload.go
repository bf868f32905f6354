package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/nobench"
	"repro/internal/sqlengine"
	"repro/internal/trace"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/experiments/baseline"
	"repro/internal/orc"
	"repro/internal/simtime"
	"repro/internal/warehouse"
)

// Fig2Result is the table-update time-of-day histogram.
type Fig2Result struct {
	Hist         [24]int
	TotalUpdates int
}

// RunFig2 regenerates Fig 2 from a synthetic trace.
func RunFig2(cfg trace.Config) *Fig2Result {
	tr := trace.Generate(cfg)
	return &Fig2Result{Hist: tr.UpdateHourHistogram(), TotalUpdates: len(tr.Updates)}
}

// String renders the histogram as an ASCII bar chart.
func (r *Fig2Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 2: table updates per hour of day\n")
	maxV := 1
	for _, v := range r.Hist {
		if v > maxV {
			maxV = v
		}
	}
	for h, v := range r.Hist {
		bar := strings.Repeat("#", v*50/maxV)
		fmt.Fprintf(&sb, "  %02d:00 %6d %s\n", h, v, bar)
	}
	fmt.Fprintf(&sb, "  total %d updates\n", r.TotalUpdates)
	return sb.String()
}

// Fig3Row is one query's phase breakdown.
type Fig3Row struct {
	Query      string
	Breakdown  PhaseBreakdown
	ParseShare float64
}

// Fig3Result holds the three NoBench queries' breakdowns.
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 regenerates Fig 3: the Read/Parse/Compute composition of a simple
// SELECT (Q1), a COUNT with GROUP BY (Q2), and a self-equijoin (Q3) over
// NoBench data, showing parsing dominating (≥80% in the paper).
func RunFig3(ctx context.Context, rows int) (*Fig3Result, error) {
	clock := simtime.NewSim(time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC))
	fs := dfs.New()
	wh := warehouse.New(fs, warehouse.WithClock(clock),
		warehouse.WithWriterOptions(orc.WriterOptions{RowGroupRows: 512}))
	wh.CreateDatabase("nb")
	schema := orc.Schema{Columns: []orc.Column{
		{Name: "id", Type: datum.TypeInt64},
		{Name: "doc", Type: datum.TypeString},
	}}
	if err := wh.CreateTable("nb", "data", schema); err != nil {
		return nil, err
	}
	gen := nobench.New(nobench.DefaultConfig())
	var recs [][]datum.Datum
	for i := 0; i < rows; i++ {
		recs = append(recs, []datum.Datum{datum.Int(int64(i)), datum.Str(gen.Next())})
	}
	if _, err := wh.AppendRows("nb", "data", recs); err != nil {
		return nil, err
	}
	// Fig 3 is the paper's motivation: SparkSQL with its Jackson tree parser.
	backend := baseline.JacksonBackend{}
	e := sqlengine.NewEngine(wh, sqlengine.WithDefaultDB("nb"), sqlengine.WithBackend(backend))

	queries := []struct{ name, sql string }{
		{"Q1 (select)", `SELECT get_json_object(doc, '$.str1') a, get_json_object(doc, '$.num') b FROM nb.data`},
		{"Q2 (count/group-by)", `SELECT get_json_object(doc, '$.thousandth') k, COUNT(*) c FROM nb.data GROUP BY get_json_object(doc, '$.thousandth')`},
		{"Q3 (self-join)", `SELECT COUNT(*) c FROM nb.data a JOIN nb.data b ON a.id = b.id WHERE get_json_object(a.doc, '$.num') > 50000`},
	}
	out := &Fig3Result{}
	for _, q := range queries {
		_, m, err := e.QueryCtx(ctx, q.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		bd := DefaultCostModel().Breakdown(m, backend)
		share := 0.0
		if bd.Total() > 0 {
			share = float64(bd.Parse) / float64(bd.Total())
		}
		out.Rows = append(out.Rows, Fig3Row{Query: q.name, Breakdown: bd, ParseShare: share})
	}
	return out, nil
}

// String renders the breakdown table.
func (r *Fig3Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 3: parsing vs query processing cost (simulated)\n")
	sb.WriteString("  query                read        parse       compute     parse%\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-20s %-11v %-11v %-11v %.0f%%\n",
			row.Query, row.Breakdown.Read, row.Breakdown.Parse, row.Breakdown.Compute, row.ParseShare*100)
	}
	return sb.String()
}

// Fig4Result is the queries-per-JSONPath distribution.
type Fig4Result struct {
	Counts        []trace.PathQueryCount
	Mean          float64
	Concentration float64 // fraction of paths carrying 89% of traffic
	Recurring     float64 // fraction of recurring queries (§II-D1)
	DupFraction   float64 // redundant parse fraction (the 89% headline)
}

// RunFig4 regenerates Fig 4 plus the §II-D headline statistics.
func RunFig4(cfg trace.Config) *Fig4Result {
	tr := trace.Generate(cfg)
	total, redundant := tr.DupParseStats()
	dup := 0.0
	if total > 0 {
		dup = float64(redundant) / float64(total)
	}
	return &Fig4Result{
		Counts:        tr.PathQueryCounts(),
		Mean:          tr.MeanQueriesPerPath(),
		Concentration: tr.TrafficConcentration(0.89),
		Recurring:     tr.Recurrence().RecurringFrac,
		DupFraction:   dup,
	}
}

// String renders the distribution summary.
func (r *Fig4Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 4: number of queries per JSONPath\n")
	show := len(r.Counts)
	if show > 10 {
		show = 10
	}
	for i := 0; i < show; i++ {
		fmt.Fprintf(&sb, "  path #%d: %d queries\n", i+1, r.Counts[i].Queries)
	}
	fmt.Fprintf(&sb, "  ... %d paths total\n", len(r.Counts))
	fmt.Fprintf(&sb, "  mean queries/path: %.1f (paper: ~14)\n", r.Mean)
	fmt.Fprintf(&sb, "  89%% of traffic on %.0f%% of paths (paper: 27%%)\n", r.Concentration*100)
	fmt.Fprintf(&sb, "  recurring queries: %.0f%% (paper: 82%%)\n", r.Recurring*100)
	fmt.Fprintf(&sb, "  redundant parse traffic: %.0f%% (paper: 89%%)\n", r.DupFraction*100)
	return sb.String()
}
