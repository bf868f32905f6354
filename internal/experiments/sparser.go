package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments/baseline"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
)

// SparserRow is one selective query's time under each configuration.
type SparserRow struct {
	Query        string
	Selectivity  float64
	Spark        time.Duration
	SparkSparser time.Duration
	Maxson       time.Duration
	ParsedSpark  int64
	ParsedSprsr  int64
	// Counter columns: documents the prefilter skipped without parsing, and
	// the cache values Maxson's combined scan read instead of parsing.
	PrefilterSkipped int64
	CacheValuesRead  int64
}

// SparserResult quantifies the raw-prefilter extension: Sparser-style
// filtering accelerates selective equality queries by skipping parses, but
// caching still wins because it skips the scan-time work entirely.
type SparserResult struct {
	Rows []SparserRow
}

// RunSparserStudy runs equality-predicate queries over the Table II
// workload under plain Spark, Spark+Sparser, and Maxson (full cache).
func RunSparserStudy(ctx context.Context, rows int, seed int64) (*SparserResult, error) {
	// Two regimes: a selective equality on metric0 (few rows match, and its
	// digits rarely appear elsewhere — the prefilter's sweet spot, and a
	// cached MPJP so Maxson serves it too), and a ubiquitous-needle equality
	// on field001 (the filler string occurs in every document, so the
	// prefilter can skip nothing).
	filler := strings.Repeat("x", fillerLenFor("Q2"))
	queries := []struct {
		name string
		sql  string
	}{
		{"selective", `SELECT get_json_object(payload, '$.field000') v FROM prod.t02
			WHERE get_json_object(payload, '$.metric1') = '42'`},
		{"ubiquitous", `SELECT get_json_object(payload, '$.metric1') v FROM prod.t02
			WHERE get_json_object(payload, '$.field001') = '` + filler + `'`},
	}

	out := &SparserResult{}
	for _, q := range queries {
		row := SparserRow{Query: q.name}

		wPlain := BuildWorkload(rows, seed)
		ePlain := wPlain.NewEngine(baseline.JacksonBackend{})
		rsP, mP, err := ePlain.QueryCtx(ctx, q.sql)
		if err != nil {
			return nil, fmt.Errorf("%s plain: %w", q.name, err)
		}
		row.Spark = mP.SimulatedTime(ePlain.CostModel())
		row.ParsedSpark = mP.Parse.Docs.Load()
		row.Selectivity = float64(len(rsP.Rows)) / float64(rows)

		wSp := BuildWorkload(rows, seed)
		eSp := sqlengine.NewEngine(wSp.WH,
			sqlengine.WithDefaultDB(wSp.DB),
			sqlengine.WithBackend(baseline.JacksonBackend{}),
			sqlengine.WithSparser(true))
		rsS, mS, err := eSp.QueryCtx(ctx, q.sql)
		if err != nil {
			return nil, fmt.Errorf("%s sparser: %w", q.name, err)
		}
		if rsS.String() != rsP.String() {
			return nil, fmt.Errorf("%s: sparser changed results", q.name)
		}
		row.SparkSparser = mS.SimulatedTime(eSp.CostModel())
		row.ParsedSprsr = mS.Parse.Docs.Load()
		row.PrefilterSkipped = mS.PrefilterSkipped.Load()

		wM := BuildWorkload(rows, seed)
		env := newMaxsonEnv(wM, baseline.JacksonBackend{})
		profiles := env.profiles()
		// The study predicates reference metric1/field001 of t02, which the
		// standard query mix does not cache; include them so Maxson serves
		// the whole query.
		for _, extra := range []string{"$.metric1", "$.field001"} {
			profiles = append(profiles, &core.PathProfile{
				Key:             pathkey.Key{DB: wM.DB, Table: "t02", Column: "payload", Path: extra},
				TotalValueBytes: 1,
			})
		}
		if _, err := env.maxson.CacheSelected(ctx, profiles); err != nil {
			return nil, err
		}
		rsM, mM, err := env.maxson.QueryCtx(ctx, q.sql)
		if err != nil {
			return nil, fmt.Errorf("%s maxson: %w", q.name, err)
		}
		if rsM.String() != rsP.String() {
			return nil, fmt.Errorf("%s: maxson changed results", q.name)
		}
		row.Maxson = mM.SimulatedTime(env.engine.CostModel())
		row.CacheValuesRead = mM.CacheValuesRead.Load()
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// fillerLenFor exposes the Table II generator's filler length so study
// queries can reference exact field values.
func fillerLenFor(query string) int {
	for _, spec := range TableII() {
		if spec.Name == query {
			return planShape(spec).fillLen
		}
	}
	return 1
}

// String renders the study.
func (r *SparserResult) String() string {
	var sb strings.Builder
	sb.WriteString("Sparser study: raw prefiltering vs caching on equality predicates\n")
	sb.WriteString("  query            select.  spark         spark+sparser  maxson        parsed(spark/sparser)  prefilter-skipped  cache-values\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-16s %.3f    %-13v %-14v %-13v %-22s %-18d %d\n",
			row.Query, row.Selectivity, row.Spark, row.SparkSparser, row.Maxson,
			fmt.Sprintf("%d/%d", row.ParsedSpark, row.ParsedSprsr),
			row.PrefilterSkipped, row.CacheValuesRead)
	}
	return sb.String()
}
