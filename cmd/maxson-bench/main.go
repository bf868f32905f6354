// Command maxson-bench regenerates the paper's evaluation tables and
// figures (§V). Each experiment prints the same rows/series the paper
// reports, computed from this repository's implementation.
//
// Usage:
//
//	maxson-bench -exp all
//	maxson-bench -exp fig11 -rows 500
//	maxson-bench -exp table3 -days 60
//	maxson-bench -exp fig12 -json            # NDJSON to stdout
//	maxson-bench -exp all -json -out results.ndjson
//
// Experiments: the names in order below (fig11 includes Table V), or all;
// maxson-bench -h prints them.
//
// With -json each experiment emits one NDJSON document
// {"experiment": ..., "ran_ms": ..., "result": {...}} so downstream tooling
// can diff runs without scraping the human-readable tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
)

// order names every experiment, in the order -exp all runs them.
var order = []string{"fig2", "fig3", "fig4", "table3", "table4", "fig11", "fig12", "fig13", "fig14", "fig15", "ablation", "sparser", "extract", "obs", "mqo"}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments to run ("+strings.Join(order, ", ")+", all)")
	rows := flag.Int("rows", 400, "rows per Table II table")
	days := flag.Int("days", 60, "trace length in days for workload/model experiments")
	seed := flag.Int64("seed", 1, "random seed")
	epochs := flag.Int("epochs", 12, "LSTM training epochs")
	asJSON := flag.Bool("json", false, "emit one NDJSON document per experiment instead of tables")
	outPath := flag.String("out", "", "with -json: write NDJSON to this file instead of stdout")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run: a deadline on every query and cache population, checked between experiments too (0 = none)")
	debugAddr := flag.String("debug-addr", "", "serve a diagnostics server (pprof, process metrics) while experiments run")
	flag.Parse()

	if *debugAddr != "" {
		// Experiments build their own systems, so this server exposes the
		// process-level surface — chiefly net/http/pprof for profiling a
		// running benchmark — rather than any one experiment's registry.
		ds := obs.NewDebugServer(obs.NewRegistry())
		addr, err := ds.Start(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/healthz, /debug/pprof)\n", addr)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = ds.Shutdown(sctx)
		}()
	}

	// The -timeout budget rides a context into every experiment that runs
	// queries or populates a cache, so an overrun aborts mid-experiment; the
	// trace and model experiments (fig2, fig4, table3, table4, fig14) only
	// compute, and the between-experiments check below stops the sweep after
	// them.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	traceCfg := trace.DefaultConfig()
	traceCfg.Days = *days
	traceCfg.Seed = *seed
	lstmCfg := core.LSTMConfig{Hidden: 16, Epochs: *epochs, LR: 0.02, Seed: *seed, Batch: 16}

	runners := map[string]func() (fmt.Stringer, error){
		"fig2": func() (fmt.Stringer, error) { return experiments.RunFig2(traceCfg), nil },
		"fig3": func() (fmt.Stringer, error) { return experiments.RunFig3(ctx, *rows*4) },
		"fig4": func() (fmt.Stringer, error) { return experiments.RunFig4(traceCfg), nil },
		"table3": func() (fmt.Stringer, error) {
			return experiments.RunTable3(traceCfg, lstmCfg), nil
		},
		"table4": func() (fmt.Stringer, error) {
			cfg := traceCfg
			if cfg.Days < 45 {
				cfg.Days = 45 // the 30-day window needs history
			}
			return experiments.RunTable4(cfg, lstmCfg), nil
		},
		"fig11":    func() (fmt.Stringer, error) { return experiments.RunFig11(ctx, *rows, *seed) },
		"fig12":    func() (fmt.Stringer, error) { return experiments.RunFig12(ctx, *rows, *seed) },
		"fig13":    func() (fmt.Stringer, error) { return experiments.RunFig13(ctx, *rows, *seed) },
		"fig14":    func() (fmt.Stringer, error) { return experiments.RunFig14(*rows, *seed, 7) },
		"fig15":    func() (fmt.Stringer, error) { return experiments.RunFig15(ctx, *rows, *seed) },
		"ablation": func() (fmt.Stringer, error) { return experiments.RunAblation(ctx, *rows, *seed) },
		"sparser":  func() (fmt.Stringer, error) { return experiments.RunSparserStudy(ctx, *rows, *seed) },
		"extract":  func() (fmt.Stringer, error) { return experiments.RunExtractBench(ctx, *rows, *seed) },
		"obs":      func() (fmt.Stringer, error) { return experiments.RunObsBench(ctx) },
		"mqo":      func() (fmt.Stringer, error) { return experiments.RunMQOBench(ctx, *rows, *seed) },
	}
	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s, all\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	var jsonOut io.Writer
	if *asJSON {
		jsonOut = os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			jsonOut = f
		}
	}

	for _, name := range selected {
		// Experiments are self-contained, so the budget is checked between
		// them: an overrun stops cleanly with completed results intact.
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "maxson-bench: -timeout %v exceeded; skipping remaining experiments starting at %s\n", *timeout, name)
			os.Exit(3)
		}
		start := time.Now()
		result, err := runners[name]()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		ran := time.Since(start)
		if *asJSON {
			doc := map[string]any{
				"experiment": name,
				"ran_ms":     ran.Milliseconds(),
				"result":     result,
			}
			enc := json.NewEncoder(jsonOut)
			if err := enc.Encode(doc); err != nil {
				log.Fatalf("%s: encode: %v", name, err)
			}
			continue
		}
		fmt.Printf("==== %s (ran in %v) ====\n", name, ran.Round(time.Millisecond))
		fmt.Println(result.String())
	}
}
