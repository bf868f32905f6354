package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/experiments/baseline"
	"repro/internal/pathkey"
	"repro/internal/sqlengine"
	"repro/internal/testbed"
	"repro/internal/warehouse"
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
	// Two regimes: a selective equality on metric1 (few rows match, and its
	// digits rarely appear elsewhere — the prefilter's sweet spot), and a
	// ubiquitous-needle equality on field001 (the filler string occurs in
	// every document, so the prefilter can skip nothing). Each needle is
	// its query's literal. The numeric one is sound only because the
	// generator writes metric1 as a canonical integer: a value written 4.2E1
	// also equals '42' but does not hold it, and would be skipped
	// (TestSparserSkipsRenderedNumber).
	filler := strings.Repeat("x", fillerLenFor("Q2"))
	queries := []struct {
		name, sql, needle string
	}{
		{"selective", `SELECT get_json_object(payload, '$.field000') v FROM prod.t02
			WHERE get_json_object(payload, '$.metric1') = '42'`, "42"},
		{"ubiquitous", `SELECT get_json_object(payload, '$.metric1') v FROM prod.t02
			WHERE get_json_object(payload, '$.field001') = '` + filler + `'`, filler},
	}

	cm := DefaultCostModel()
	out := &SparserResult{}
	for _, q := range queries {
		sp, err := runSparser(ctx, BuildWorkload(rows, seed).WH, q.sql, q.needle)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		row := SparserRow{
			Query:            q.name,
			Selectivity:      float64(len(sp.rs.Rows)) / float64(rows),
			Spark:            cm.SimulatedTime(sp.plain, baseline.JacksonBackend{}),
			SparkSparser:     sp.breakdown(cm).Total(),
			ParsedSpark:      sp.plain.Parse.Docs.Load(),
			ParsedSprsr:      sp.admitted.Parse.Docs.Load(),
			PrefilterSkipped: sp.skipped,
		}

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
		if rsM.String() != sp.rs.String() {
			return nil, fmt.Errorf("%s: maxson changed results", q.name)
		}
		row.Maxson = cm.SimulatedTime(mM, env.backend)
		row.CacheValuesRead = mM.CacheValuesRead.Load()
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// sparserRun is one query's Spark and Spark+Sparser runs: the plain Jackson
// engine over the whole table, and over the rows Sparser's needle test
// admits.
type sparserRun struct {
	rs              *sqlengine.ResultSet // the plain run's rows, which the admitted run reproduced
	plain, admitted *sqlengine.Metrics
	// skipped counts the documents the needle test kept from the parser,
	// examined the bytes it read.
	skipped, examined int64
}

// runSparser runs sql on wh with the plain Jackson engine, then again over a
// copy of the scanned table holding only the rows whose document column
// baseline.SparserAdmits admits for needle: Sparser filters before the
// parser. The copy lives in a warehouse of its own under the same names, so
// sql runs on it unchanged. The scan must extract from one document column.
// It fails when the admitted run's rows differ from the plain run's: the
// filter skipped a row the query returns.
func runSparser(ctx context.Context, wh *warehouse.Warehouse, sql, needle string) (*sparserRun, error) {
	jackson := sqlengine.WithBackend(baseline.JacksonBackend{})
	e := sqlengine.NewEngine(wh, jackson)
	plan, _, err := e.PlanOnly(sql)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	scan := plan.Scan
	info, err := wh.Table(scan.DB, scan.Table)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(info.Schema.Columns))
	doc := -1
	for i, c := range info.Schema.Columns {
		cols[i] = c.Name
		for _, x := range scan.Extract {
			if strings.EqualFold(x.Column, c.Name) {
				if doc >= 0 && doc != i {
					return nil, fmt.Errorf("sparser: %s.%s: more than one document column", scan.DB, scan.Table)
				}
				doc = i
			}
		}
	}
	if doc < 0 {
		return nil, fmt.Errorf("sparser: %s.%s: no document column", scan.DB, scan.Table)
	}
	all, err := wh.ReadAll(scan.DB, scan.Table, cols)
	if err != nil {
		return nil, fmt.Errorf("read %s.%s: %w", scan.DB, scan.Table, err)
	}
	run := &sparserRun{}
	var admitted [][]datum.Datum
	for _, row := range all {
		ok, n := baseline.SparserAdmits(row[doc], needle)
		run.examined += int64(n)
		if !ok {
			run.skipped++
			continue
		}
		admitted = append(admitted, row)
	}
	bed := testbed.New(testbed.Config{})
	if err := bed.Load(0, testbed.Table{DB: scan.DB, Name: scan.Table, Schema: info.Schema,
		Parts: [][][]datum.Datum{admitted}}); err != nil {
		return nil, fmt.Errorf("load admitted rows: %w", err)
	}

	if run.rs, run.plain, err = e.QueryCtx(ctx, sql); err != nil {
		return nil, fmt.Errorf("plain: %w", err)
	}
	rs, m, err := sqlengine.NewEngine(bed.WH, jackson).QueryCtx(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("sparser: %w", err)
	}
	if rs.String() != run.rs.String() {
		return nil, errors.New("sparser changed results")
	}
	run.admitted = m
	return run, nil
}

// breakdown prices the Spark+Sparser column: the whole table's read, the
// admitted documents' tree parse plus the needle test's bytes, and the
// admitted run's row ops plus the one op a skipped row costs.
func (r *sparserRun) breakdown(cm CostModel) PhaseBreakdown {
	pc := r.admitted.Parse.Snapshot()
	return PhaseBreakdown{
		Read: time.Duration(float64(r.plain.BytesRead.Load()) * cm.ReadNsPerByte),
		Parse: time.Duration(float64(pc.Bytes)*cm.ParseNsPerByteTree + float64(pc.Calls)*cm.ParseNsPerCall +
			float64(r.examined)*cm.PrefilterNsPerByte),
		Compute: time.Duration(float64(r.admitted.RowOps.Load()+r.skipped) * cm.ComputeNsPerRowOp),
	}
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
