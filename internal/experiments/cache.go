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

// BudgetLevel maps a paper budget label onto a fraction of the total MPJP
// cache footprint. 400GB fits every MPJP in the paper, so it maps to 1.0;
// the smaller budgets scale proportionally.
type BudgetLevel struct {
	Label    string
	Fraction float64
}

// PaperBudgets reproduces the Fig 11 / Table V budget ladder.
func PaperBudgets() []BudgetLevel {
	return []BudgetLevel{
		{"100GB", 0.25},
		{"200GB", 0.50},
		{"300GB", 0.75},
		{"400GB", 1.00},
	}
}

// maxsonEnv wires a Maxson instance over a Table II workload and registers
// every query's paths with the collector (each query observed once per day
// over a one-week history, the recurring-daily pattern).
type maxsonEnv struct {
	w       *Workload
	engine  *sqlengine.Engine
	backend sqlengine.ParserBackend // the engine's, for the cost model
	maxson  *core.Maxson
	queries []QuerySpec
}

func newMaxsonEnv(w *Workload, backend sqlengine.ParserBackend) *maxsonEnv {
	engine := w.NewEngine(backend)
	m := core.New(engine, core.Config{BudgetBytes: 1 << 62, DefaultDB: w.DB})
	env := &maxsonEnv{w: w, engine: engine, backend: backend, maxson: m, queries: w.Specs}
	// Observe one week of daily history for every query.
	now := w.Clock.Now()
	for day := 7; day >= 1; day-- {
		at := now.Add(-time.Duration(day) * 24 * time.Hour)
		for _, spec := range w.Specs {
			env.maxson.Collector.Observe(env.pathKeys(spec.Name), at)
			// Spatial correlation: a sibling query re-reads the same paths
			// later the same day, making every path an MPJP.
			env.maxson.Collector.Observe(env.pathKeys(spec.Name), at.Add(2*time.Hour))
		}
	}
	return env
}

func (env *maxsonEnv) pathKeys(query string) []pathkey.Key {
	var out []pathkey.Key
	for _, p := range env.w.Paths[query] {
		out = append(out, pathkey.Key{DB: env.w.DB, Table: tableOf(env.w, query), Column: "payload", Path: p})
	}
	return out
}

func tableOf(w *Workload, query string) string {
	if query == WildcardQuery {
		return "t03"
	}
	for _, s := range w.Specs {
		if s.Name == query {
			return s.Table
		}
	}
	return ""
}

// profiles measures and scores every MPJP candidate of the workload.
func (env *maxsonEnv) profiles() []*core.PathProfile {
	mpjp := map[pathkey.Key]bool{}
	var candidates []pathkey.Key
	for _, spec := range env.queries {
		for _, k := range env.pathKeys(spec.Name) {
			if !mpjp[k] {
				mpjp[k] = true
				candidates = append(candidates, k)
			}
		}
	}
	now := env.w.Clock.Now()
	sets := env.maxson.Collector.PathSets(now.AddDate(0, 0, -8), 8)
	return env.maxson.Scorer.Profile(candidates, sets, mpjp)
}

// totalMPJPBytes sums every candidate's cache footprint.
func totalMPJPBytes(profiles []*core.PathProfile) int64 {
	var n int64
	for _, p := range profiles {
		n += p.TotalValueBytes
	}
	return n
}

// runQueries executes every Table II query and returns the total simulated
// time plus per-query metrics.
func (env *maxsonEnv) runQueries(ctx context.Context) (time.Duration, map[string]*sqlengine.Metrics, error) {
	var total time.Duration
	metrics := make(map[string]*sqlengine.Metrics)
	for _, spec := range env.queries {
		_, m, err := env.maxson.QueryCtx(ctx, env.w.SQL[spec.Name])
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		total += DefaultCostModel().SimulatedTime(m, env.backend)
		metrics[spec.Name] = m
	}
	return total, metrics, nil
}

// Fig11Row is one (budget, strategy) cell.
type Fig11Row struct {
	Budget    string
	Strategy  string // "scoring" | "random" | "no-cache"
	TotalTime time.Duration
	// CachedPerQuery is Table V: how many of each query's paths are cached.
	CachedPerQuery map[string]int
	CacheOverhead  time.Duration // pre-parsing cost of the cycle
}

// Fig11Result is the full budget sweep.
type Fig11Result struct {
	Rows      []Fig11Row
	NoCache   time.Duration
	TotalMPJP int64
}

// RunFig11 regenerates Fig 11 and Table V: total execution time of the ten
// queries under each budget with score-based vs random selection, plus the
// uncached baseline.
func RunFig11(ctx context.Context, rows int, seed int64) (*Fig11Result, error) {
	out := &Fig11Result{}

	// Baseline: no cache.
	{
		w := BuildWorkload(rows, seed)
		env := newMaxsonEnv(w, baseline.JacksonBackend{})
		total, _, err := env.runQueries(ctx)
		if err != nil {
			return nil, err
		}
		out.NoCache = total
	}

	for _, strategy := range []string{"scoring", "random"} {
		for _, budget := range PaperBudgets() {
			w := BuildWorkload(rows, seed)
			env := newMaxsonEnv(w, baseline.JacksonBackend{})
			profiles := env.profiles()
			if out.TotalMPJP == 0 {
				out.TotalMPJP = totalMPJPBytes(profiles)
			}
			budgetBytes := int64(float64(out.TotalMPJP) * budget.Fraction)
			var selected []*core.PathProfile
			if strategy == "scoring" {
				selected = core.SelectUnderBudget(profiles, budgetBytes)
			} else {
				selected = core.RandomSelectUnderBudget(profiles, budgetBytes, seed+int64(len(out.Rows)))
			}
			stats, err := env.maxson.CacheSelected(ctx, selected)
			if err != nil {
				return nil, err
			}
			total, _, err := env.runQueries(ctx)
			if err != nil {
				return nil, err
			}
			row := Fig11Row{
				Budget:         budget.Label,
				Strategy:       strategy,
				TotalTime:      total,
				CachedPerQuery: map[string]int{},
				CacheOverhead:  time.Duration(float64(stats.BytesScanned) * DefaultCostModel().ParseNsPerByteStream),
			}
			selectedSet := map[pathkey.Key]bool{}
			for _, p := range selected {
				selectedSet[p.Key] = true
			}
			for _, spec := range env.queries {
				n := 0
				for _, k := range env.pathKeys(spec.Name) {
					if selectedSet[k] {
						n++
					}
				}
				row.CachedPerQuery[spec.Name] = n
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders Fig 11 plus Table V.
func (r *Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 11: total execution time of the 10 queries (simulated)\n")
	fmt.Fprintf(&sb, "  no-cache baseline: %v\n", r.NoCache)
	sb.WriteString("  budget   strategy  total-time    speedup  cache-overhead\n")
	for _, row := range r.Rows {
		sp := float64(r.NoCache) / float64(row.TotalTime)
		fmt.Fprintf(&sb, "  %-8s %-9s %-13v %.2fx    %v\n",
			row.Budget, row.Strategy, row.TotalTime, sp, row.CacheOverhead)
	}
	sb.WriteString("\nTable V: cached JSONPath count per query (scoring strategy)\n")
	sb.WriteString("  budget  ")
	for _, spec := range TableII() {
		fmt.Fprintf(&sb, "%5s", spec.Name)
	}
	sb.WriteString("\n")
	for _, row := range r.Rows {
		if row.Strategy != "scoring" {
			continue
		}
		fmt.Fprintf(&sb, "  %-7s ", row.Budget)
		for _, spec := range TableII() {
			fmt.Fprintf(&sb, "%5d", row.CachedPerQuery[spec.Name])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig12Row is one (query, system) breakdown.
type Fig12Row struct {
	Query     string
	System    string // "spark" | "maxson"
	Breakdown PhaseBreakdown
	InputMB   float64
	// Counter columns: where the savings come from. Maxson rows show cache
	// reads and the row groups its pushdown skipped; spark rows show zero.
	RowGroupsSkipped int64
	CacheValuesRead  int64
}

// Fig12Result holds the Q2/Q9 breakdowns.
type Fig12Result struct{ Rows []Fig12Row }

// RunFig12 regenerates Fig 12: Read/Parse/Compute plus input size for Q2
// and Q9 under plain Spark and under Maxson with all MPJPs cached (the
// queries whose predicates push down into the cache table).
func RunFig12(ctx context.Context, rows int, seed int64) (*Fig12Result, error) {
	out := &Fig12Result{}
	targets := []string{"Q2", "Q9"}

	// Plain engine.
	wPlain := BuildWorkload(rows, seed)
	ePlain := wPlain.NewEngine(baseline.JacksonBackend{})
	for _, q := range targets {
		_, m, err := ePlain.QueryCtx(ctx, wPlain.SQL[q])
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig12Row{
			Query: q, System: "spark",
			Breakdown:        DefaultCostModel().Breakdown(m, baseline.JacksonBackend{}),
			InputMB:          float64(m.BytesRead.Load()) / (1 << 20),
			RowGroupsSkipped: m.RowGroupsSkipped.Load(),
			CacheValuesRead:  m.CacheValuesRead.Load(),
		})
	}

	// Maxson with the full MPJP set cached.
	w := BuildWorkload(rows, seed)
	env := newMaxsonEnv(w, baseline.JacksonBackend{})
	if _, err := env.maxson.CacheSelected(ctx, env.profiles()); err != nil {
		return nil, err
	}
	for _, q := range targets {
		_, m, err := env.maxson.QueryCtx(ctx, w.SQL[q])
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig12Row{
			Query: q, System: "maxson",
			Breakdown:        DefaultCostModel().Breakdown(m, env.backend),
			InputMB:          float64(m.BytesRead.Load()) / (1 << 20),
			RowGroupsSkipped: m.RowGroupsSkipped.Load(),
			CacheValuesRead:  m.CacheValuesRead.Load(),
		})
	}
	return out, nil
}

// String renders Fig 12.
func (r *Fig12Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 12: Read/Parse/Compute breakdown and input size (simulated)\n")
	sb.WriteString("  query  system  read        parse       compute     input(MB)  rg-skipped  cache-values\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-6s %-7s %-11v %-11v %-11v %-10.2f %-11d %d\n",
			row.Query, row.System, row.Breakdown.Read, row.Breakdown.Parse, row.Breakdown.Compute,
			row.InputMB, row.RowGroupsSkipped, row.CacheValuesRead)
	}
	return sb.String()
}

// Fig13Row is one query's plan-generation cost.
type Fig13Row struct {
	Query      string
	SparkPlan  time.Duration // simulated
	MaxsonPlan time.Duration
	PathCount  int
}

// Fig13Result is the plan-time comparison.
type Fig13Result struct{ Rows []Fig13Row }

// RunFig13 regenerates Fig 13: plan generation time with and without
// Maxson's modification pass, per query (the paper: +0.4s on average,
// growing with the number of JSONPaths).
func RunFig13(ctx context.Context, rows int, seed int64) (*Fig13Result, error) {
	wPlain := BuildWorkload(rows, seed)
	ePlain := wPlain.NewEngine(baseline.JacksonBackend{})

	w := BuildWorkload(rows, seed)
	env := newMaxsonEnv(w, baseline.JacksonBackend{})
	if _, err := env.maxson.CacheSelected(ctx, core.SelectUnderBudget(env.profiles(),
		int64(float64(totalMPJPBytes(env.profiles()))*0.75))); err != nil {
		return nil, err
	}

	out := &Fig13Result{}
	for _, spec := range TableII() {
		_, mp, err := ePlain.PlanOnly(wPlain.SQL[spec.Name])
		if err != nil {
			return nil, err
		}
		_, mm, err := env.engine.PlanOnly(w.SQL[spec.Name])
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig13Row{
			Query:      spec.Name,
			SparkPlan:  DefaultCostModel().SimulatedPlanTime(mp),
			MaxsonPlan: DefaultCostModel().SimulatedPlanTime(mm),
			PathCount:  spec.PathCount,
		})
	}
	return out, nil
}

// String renders Fig 13.
func (r *Fig13Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 13: plan generation time (simulated)\n")
	sb.WriteString("  query  paths  spark        maxson       overhead\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-6s %-6d %-12v %-12v %v\n",
			row.Query, row.PathCount, row.SparkPlan, row.MaxsonPlan, row.MaxsonPlan-row.SparkPlan)
	}
	return sb.String()
}

// Fig15Row is one query's time under each system.
type Fig15Row struct {
	Query        string
	SparkJackson time.Duration
	SparkMison   time.Duration
	Maxson       time.Duration
	MaxsonStream time.Duration // Maxson with the streaming on-demand fallback lane
	MaxsonMison  time.Duration
	Cached       int // cached path count at the 300GB-equivalent budget
}

// Fig15Result is the parser comparison.
type Fig15Result struct{ Rows []Fig15Row }

// RunFig15 regenerates Fig 15: per-query time under Spark+Jackson,
// Spark+Mison, Maxson (+Jackson for uncached paths), Maxson with the
// streaming on-demand extractor serving the uncached fallback lane, and
// Maxson+Mison, at the 300GB-equivalent cache budget. Alongside the ten
// Table II queries it runs QW, the wildcard companion query ($.events[*].v
// over Q3's table) whose path is deliberately uncached, so the maxson+stream
// lane shows the array-iteration trie nodes against the tree-parse fallback.
func RunFig15(ctx context.Context, rows int, seed int64) (*Fig15Result, error) {
	fig15Queries := append(TableII(), QuerySpec{Name: WildcardQuery, Table: "t03", PathCount: 1})
	times := map[string]map[string]time.Duration{}
	cached := map[string]int{}
	record := func(system string, q string, d time.Duration) {
		if times[q] == nil {
			times[q] = map[string]time.Duration{}
		}
		times[q][system] = d
	}

	// Plain engines.
	for _, cfg := range []struct {
		system  string
		backend sqlengine.ParserBackend
	}{
		{"spark+jackson", baseline.JacksonBackend{}},
		{"spark+mison", baseline.MisonBackend{}},
	} {
		w := BuildWorkload(rows, seed)
		e := w.NewEngine(cfg.backend)
		for _, spec := range fig15Queries {
			_, m, err := e.QueryCtx(ctx, w.SQL[spec.Name])
			if err != nil {
				return nil, err
			}
			record(cfg.system, spec.Name, DefaultCostModel().SimulatedTime(m, cfg.backend))
		}
	}

	// Maxson variants at the 300GB-equivalent budget.
	for _, cfg := range []struct {
		system  string
		backend sqlengine.ParserBackend
	}{
		{"maxson", baseline.JacksonBackend{}},
		{"maxson+stream", sqlengine.StreamBackend{}},
		{"maxson+mison", baseline.MisonBackend{}},
	} {
		w := BuildWorkload(rows, seed)
		env := newMaxsonEnv(w, cfg.backend)
		profiles := env.profiles()
		budget := int64(float64(totalMPJPBytes(profiles)) * 0.75)
		selected := core.SelectUnderBudget(profiles, budget)
		if _, err := env.maxson.CacheSelected(ctx, selected); err != nil {
			return nil, err
		}
		selectedSet := map[pathkey.Key]bool{}
		for _, p := range selected {
			selectedSet[p.Key] = true
		}
		for _, spec := range fig15Queries {
			_, m, err := env.maxson.QueryCtx(ctx, w.SQL[spec.Name])
			if err != nil {
				return nil, err
			}
			record(cfg.system, spec.Name, DefaultCostModel().SimulatedTime(m, env.backend))
			if cfg.system == "maxson" {
				n := 0
				for _, k := range env.pathKeys(spec.Name) {
					if selectedSet[k] {
						n++
					}
				}
				cached[spec.Name] = n
			}
		}
	}

	out := &Fig15Result{}
	for _, spec := range fig15Queries {
		t := times[spec.Name]
		out.Rows = append(out.Rows, Fig15Row{
			Query:        spec.Name,
			SparkJackson: t["spark+jackson"],
			SparkMison:   t["spark+mison"],
			Maxson:       t["maxson"],
			MaxsonStream: t["maxson+stream"],
			MaxsonMison:  t["maxson+mison"],
			Cached:       cached[spec.Name],
		})
	}
	return out, nil
}

// String renders Fig 15.
func (r *Fig15Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 15: per-query time by system (simulated), 300GB-equivalent cache\n")
	sb.WriteString("  maxson+stream serves uncached paths with the single-pass streaming\n")
	sb.WriteString("  extractor (parse charged per byte scanned, early exit skips the rest);\n")
	sb.WriteString("  maxson and maxson+mison fall back to the tree and index parsers.\n")
	sb.WriteString("  QW is the uncached wildcard query ($.events[*].v over Q3's table):\n")
	sb.WriteString("  its maxson+stream lane runs on the array-iteration trie nodes.\n")
	sb.WriteString("  query  spark+jackson  spark+mison   maxson        maxson+stream maxson+mison  cached-paths\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-6s %-14v %-13v %-13v %-13v %-13v %d\n",
			row.Query, row.SparkJackson, row.SparkMison, row.Maxson, row.MaxsonStream, row.MaxsonMison, row.Cached)
	}
	return sb.String()
}
