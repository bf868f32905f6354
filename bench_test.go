package maxson

// One benchmark per table/figure of the paper's evaluation. Each bench runs
// the corresponding experiment harness and reports the headline quantities
// as custom metrics alongside wall-clock, so `go test -bench=.` regenerates
// the whole evaluation. Scaled-down row counts keep iterations tractable;
// run cmd/maxson-bench for full-size reports.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trace"
)

const (
	benchRows = 200
	benchSeed = 1
)

func benchTrace() trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Days = 35
	cfg.Users = 30
	cfg.Tables = 20
	return cfg
}

func benchLSTM() core.LSTMConfig {
	return core.LSTMConfig{Hidden: 12, Epochs: 6, LR: 0.02, Seed: benchSeed, Batch: 16}
}

func BenchmarkFig2UpdateHistogram(b *testing.B) {
	var noonShare float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(benchTrace())
		noon := r.Hist[11] + r.Hist[12] + r.Hist[13]
		noonShare = float64(noon) / float64(r.TotalUpdates)
	}
	b.ReportMetric(noonShare*100, "%updates-near-noon")
}

func BenchmarkFig3ParseCost(b *testing.B) {
	var minShare float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(context.Background(), benchRows*2)
		if err != nil {
			b.Fatal(err)
		}
		minShare = 1
		for _, row := range r.Rows {
			if row.ParseShare < minShare {
				minShare = row.ParseShare
			}
		}
	}
	b.ReportMetric(minShare*100, "%min-parse-share")
}

func BenchmarkFig4PowerLaw(b *testing.B) {
	var mean, conc float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(benchTrace())
		mean = r.Mean
		conc = r.Concentration
	}
	b.ReportMetric(mean, "queries/path")
	b.ReportMetric(conc*100, "%paths-for-89%traffic")
}

func BenchmarkTable3Models(b *testing.B) {
	var crfF1, lrF1 float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable3(benchTrace(), benchLSTM())
		for _, row := range r.Rows {
			switch row.Model {
			case "LSTM+CRF":
				crfF1 = row.F1
			case "LR":
				lrF1 = row.F1
			}
		}
	}
	b.ReportMetric(crfF1, "lstm+crf-F1")
	b.ReportMetric(lrF1, "lr-F1")
}

func BenchmarkTable4Windows(b *testing.B) {
	cfg := benchTrace()
	cfg.Days = 45
	var bestF1 float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable4(cfg, benchLSTM())
		for _, row := range r.Rows {
			if row.Model == "LSTM+CRF" && row.Window == 7 {
				bestF1 = row.F1
			}
		}
	}
	b.ReportMetric(bestF1, "1wk-lstm+crf-F1")
}

func BenchmarkFig11CacheBudgets(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig11(context.Background(), benchRows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Budget == "400GB" && row.Strategy == "scoring" {
				speedup = float64(r.NoCache) / float64(row.TotalTime)
			}
		}
	}
	b.ReportMetric(speedup, "full-budget-speedup-x")
}

func BenchmarkFig12Breakdown(b *testing.B) {
	var inputShrink float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig12(context.Background(), benchRows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var sparkMB, maxsonMB float64
		for _, row := range r.Rows {
			if row.Query == "Q9" {
				if row.System == "spark" {
					sparkMB = row.InputMB
				} else {
					maxsonMB = row.InputMB
				}
			}
		}
		if maxsonMB > 0 {
			inputShrink = sparkMB / maxsonMB
		}
	}
	b.ReportMetric(inputShrink, "q9-input-shrink-x")
}

func BenchmarkFig13PlanTime(b *testing.B) {
	var avgOverheadNs float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig13(context.Background(), benchRows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, row := range r.Rows {
			total += float64(row.MaxsonPlan - row.SparkPlan)
		}
		avgOverheadNs = total / float64(len(r.Rows))
	}
	b.ReportMetric(avgOverheadNs, "avg-plan-overhead-ns")
}

func BenchmarkFig14OnlineLRU(b *testing.B) {
	var lruHit, maxsonHit float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14(benchRows, benchSeed, 5)
		if err != nil {
			b.Fatal(err)
		}
		lruHit = r.LRUHitRatio
		maxsonHit = r.MaxsonHitRatio
	}
	b.ReportMetric(lruHit, "lru-hit-ratio")
	b.ReportMetric(maxsonHit, "maxson-hit-ratio")
}

func BenchmarkFig15Parsers(b *testing.B) {
	var maxsonSpeedup, misonSpeedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig15(context.Background(), benchRows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var jackson, mison, maxson float64
		for _, row := range r.Rows {
			jackson += float64(row.SparkJackson)
			mison += float64(row.SparkMison)
			maxson += float64(row.Maxson)
		}
		maxsonSpeedup = jackson / maxson
		misonSpeedup = jackson / mison
	}
	b.ReportMetric(maxsonSpeedup, "maxson-vs-jackson-x")
	b.ReportMetric(misonSpeedup, "mison-vs-jackson-x")
}

// BenchmarkAblation measures the contribution of each design choice.
func BenchmarkAblation(b *testing.B) {
	var fullSpeedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblation(context.Background(), benchRows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		fullSpeedup = float64(r.NoCache.TotalTime) / float64(r.Rows[len(r.Rows)-1].TotalTime)
	}
	b.ReportMetric(fullSpeedup, "full-maxson-speedup-x")
}

// BenchmarkSparserStudy measures the raw-prefilter extension.
func BenchmarkSparserStudy(b *testing.B) {
	var prefilterSpeedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunSparserStudy(context.Background(), benchRows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		sel := r.Rows[0]
		prefilterSpeedup = float64(sel.Spark) / float64(sel.SparkSparser)
	}
	b.ReportMetric(prefilterSpeedup, "prefilter-speedup-x")
}

// BenchmarkEndToEndDailyCycle measures the full public-API loop: load a
// day's data, run the recurring queries, and execute the midnight cycle.
func BenchmarkEndToEndDailyCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := NewSystem(SystemConfig{DefaultDB: "mydb", RowGroupRows: 64})
		wh := sys.Warehouse()
		wh.CreateDatabase("mydb")
		schema := Schema{Columns: []Column{
			{Name: "date", Type: TypeString},
			{Name: "logs", Type: TypeString},
		}}
		if err := wh.CreateTable("mydb", "s", schema); err != nil {
			b.Fatal(err)
		}
		sql := `SELECT get_json_object(logs, '$.v') v FROM mydb.s`
		for day := 0; day < 8; day++ {
			rows := [][]Datum{{Str("d"), Str(`{"v":1,"w":"x"}`)}}
			if _, err := wh.AppendRows("mydb", "s", rows); err != nil {
				b.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				if _, _, err := sys.QueryCtx(context.Background(), sql); err != nil {
					b.Fatal(err)
				}
			}
			sys.AdvanceToMidnight()
			if day >= 6 {
				if _, err := sys.RunMidnightCycleCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
