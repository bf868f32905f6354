// Command e2e is the end-to-end and per-layer benchmark of maxson-serve.
//
// It builds a maxson.NewSystem with exactly cmd/maxson-serve's defaults,
// seeds it from -seed, starts the server in-process on a loopback port,
// drives it with two closed-loop HTTP clients, checks every reply against a
// plain engine's result, and prints every metric by name with its unit. The
// last line of standard output is one JSON object: the end-to-end metrics,
// or with -trace 1 the per-layer metrics. bench/README.md has the glossary
// and the method.
//
// bench/run.sh builds and runs it with the build cache inside the checkout:
//
//	bash bench/run.sh --workload hot_cached --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload small_fixed --seed 1 --seconds 12 --trace 1
//	bash bench/run.sh --repeat 5          # calibration table, every workload
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// outDir receives the per-run reports and the traces.
var outDir = "bench/out"

func main() {
	name := flag.String("workload", "", "hot_cached, cold_raw, small_fixed or cycle_mixed")
	seed := flag.Int64("seed", 1, "drives document content and request order")
	seconds := flag.Int("seconds", runSeconds, "length of the measured phase on the reference box; the request counts are fixed for this one value")
	trace := flag.Int("trace", 0, "1 adds the traced replays and prints the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run every workload this many times (seeds seed, seed+1, ...) and print the calibration table")
	flag.Parse()

	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "e2e: -seconds %d: the request counts are fixed and calibrated for %d only\n", *seconds, runSeconds)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *repeat > 0 {
		if err := calibrate(ctx, *repeat, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	rep, err := runOnce(ctx, w, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	printReport(rep, *trace == 1)
	suffix := ""
	if *trace == 1 {
		suffix = "-trace"
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d%s.json", w.name, *seed, suffix)), rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}

	// The contract line: end-to-end metrics untraced, per-layer traced.
	metrics := rep.EndToEnd
	if *trace == 1 {
		metrics = rep.PerLayer
	}
	last, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	if !rep.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// calibrate runs the whole suite n times, each repeat on its own seed, and
// prints per workload and metric the median, the extremes, the relative
// range and the interquartile share, with the reference kernel beside each
// repeat so machine drift is visible. The clock metrics follow the
// end-to-end ones: the table is the evidence for keeping them unbounded.
func calibrate(ctx context.Context, n int, seed int64) error {
	table := map[string]map[string][]float64{} // workload -> metric -> one value per repeat
	fmt.Printf("calibration: %d repeats x %d workloads, %d s, seeds %d..%d\n\n",
		n, len(workloads), runSeconds, seed, seed+int64(n)-1)
	fmt.Println("| repeat | seed | workload | harness.ref_kernel_ms | correct |")
	fmt.Println("|---|---|---|---|---|")
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			rep, err := runOnce(ctx, w, seed+int64(i), false)
			if err != nil {
				return fmt.Errorf("%s repeat %d: %w", w.name, i+1, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s repeat %d: %s %v", w.name, i+1, rep.Failure, rep.Gates)
			}
			fmt.Printf("| %d | %d | %s | %.2f | %v |\n", i+1, rep.Seed, w.name,
				rep.PerLayer["harness.ref_kernel_ms"].Value, rep.Correct)
			if table[w.name] == nil {
				table[w.name] = map[string][]float64{}
			}
			for name, m := range rep.EndToEnd {
				table[w.name][name] = append(table[w.name][name], m.Value)
			}
			for _, name := range clockMetrics {
				table[w.name][name] = append(table[w.name][name], rep.PerLayer[name].Value)
			}
		}
	}
	fmt.Println("\n| workload | metric | median | min | max | (max-min)/median | IQR/median |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var names []string
	for _, e := range endToEnd {
		names = append(names, e.name)
	}
	names = append(names, clockMetrics...)
	for _, w := range workloads {
		for _, name := range names {
			vs := sorted(table[w.name][name])
			med := median(vs)
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f |\n", w.name, name,
				med, vs[0], vs[len(vs)-1], share(vs[len(vs)-1]-vs[0], med), iqrShare(vs))
		}
	}
	return nil
}

// environment records where and how a run was made; every output carries it.
func environment(b *bed, w workload, seed int64) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"git_commit": commit,
		"seed":       seed,
		"seconds":    runSeconds,
		"server_config": map[string]any{
			"workers": serveWorkers, "queue": serveQueue, "query_timeout": serveTimeout.String(),
			"scan_share_window": scanShareWindow.String(), "budget_bytes": budgetBytes(w, b.scale),
			"flight_recorder": true,
		},
		"clients":             numClients,
		"windows":             numWindows,
		"requests_per_window": w.windowRequests(b.scale) * numClients,
		"warmup_requests":     (w.windowRequests(b.scale)*numWindows + 19) / 20 * numClients,
		"setup_repeats":       setupRepeats,
		"seeded_days":         seedDays,
		"rows_per_table":      seedDays * rowsPerDay / b.scale,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
