package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments/baseline"
)

// AblationRow is one Maxson variant's aggregate performance.
type AblationRow struct {
	Variant   string
	TotalTime time.Duration
	BytesRead int64
	ParseDocs int64
}

// AblationResult isolates the contribution of each design choice the paper
// motivates: serving calls from cache columns alone, plus predicate pushdown (§IV-F),
// plus dropping fully cached JSON columns from the primary read set
// (Fig 9's projection change).
type AblationResult struct {
	Rows    []AblationRow
	NoCache AblationRow
}

// RunAblation runs the ten-query workload (full MPJP set cached) under
// three Maxson configurations and the uncached baseline.
func RunAblation(ctx context.Context, rows int, seed int64) (*AblationResult, error) {
	out := &AblationResult{}

	run := func(configure func(env *maxsonEnv)) (AblationRow, error) {
		w := BuildWorkload(rows, seed)
		env := newMaxsonEnv(w, baseline.JacksonBackend{})
		if configure != nil {
			if _, err := env.maxson.CacheSelected(ctx, env.profiles()); err != nil {
				return AblationRow{}, err
			}
			configure(env)
		}
		var row AblationRow
		total, metrics, err := env.runQueries(ctx)
		if err != nil {
			return AblationRow{}, err
		}
		row.TotalTime = total
		for _, m := range metrics {
			row.BytesRead += m.BytesRead.Load()
			row.ParseDocs += m.Parse.Docs.Load()
		}
		return row, nil
	}

	baseline, err := run(nil)
	if err != nil {
		return nil, err
	}
	baseline.Variant = "no-cache"
	out.NoCache = baseline

	variants := []struct {
		name string
		conf func(env *maxsonEnv)
	}{
		{"cache only (no pushdown, keep JSON cols)", func(env *maxsonEnv) {
			env.maxson.Planner.Pushdown = false
			env.maxson.Planner.KeepJSONColumns = true
		}},
		{"+ drop cached JSON columns", func(env *maxsonEnv) {
			env.maxson.Planner.Pushdown = false
		}},
		{"+ predicate pushdown (full Maxson)", func(env *maxsonEnv) {}},
	}
	for _, v := range variants {
		row, err := run(v.conf)
		if err != nil {
			return nil, err
		}
		row.Variant = v.name
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation: contribution of each Maxson design choice (10-query workload)\n")
	sb.WriteString("  variant                                  total-time    bytes-read  parsed-docs\n")
	write := func(row AblationRow) {
		fmt.Fprintf(&sb, "  %-40s %-13v %-11d %d\n", row.Variant, row.TotalTime, row.BytesRead, row.ParseDocs)
	}
	write(r.NoCache)
	for _, row := range r.Rows {
		write(row)
	}
	return sb.String()
}
