package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
)

// endToEnd lists the metrics a user of the server would see, in report
// order. BENCHMARK.json carries the same names with their bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"alloc_kb_per_query", "kB"},
	{"ok_share", "share"},
	{"cache_space_ratio", "ratio"},
	{"heap_live_mb", "MB"},
}

// clockMetrics were meant to be end-to-end metrics too. Between identical
// runs on the reference box they move by more than the 0.10 the issue allows
// a bound to be (bench/CALIBRATION.md), so they are reported per layer,
// without a bound. The calibration table still shows them.
var clockMetrics = []string{
	"serve.qps", "serve.lat_p50_ms", "serve.lat_p95_ms", "serve.cpu_ms_per_query", "core.cycle.wall_s",
}

// setupRepeats is how often a run sets the system up; setup_s is the median.
// The last bed is the one the workload is driven against.
const setupRepeats = 3

// report is everything one run of one workload produced.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failure   string            `json:"first_failure,omitempty"`
	Gates     []string          `json:"failed_gates,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	SelfTime  []layerRow        `json:"self_time,omitempty"`
	// WindowQPS is the per-window series behind serve.qps, in run order.
	WindowQPS []float64 `json:"window_qps"`
	// Samples is the n behind each percentile and median.
	Samples     map[string]int `json:"samples"`
	Environment map[string]any `json:"environment"`
}

// runOnce sets the system up setupRepeats times, one bed after the other,
// and drives one workload against the last.
func runOnce(ctx context.Context, w workload, seed int64, trace bool) (*report, error) {
	var b *bed
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("drain server: %w", err)
			}
		}
		var err error
		if b, err = newBed(ctx, w, seed, 1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, b.setupS)
	}
	b.setupS = median(setups)
	rep, err := drive(ctx, b, w, seed, trace)
	if cerr := b.close(); err == nil && cerr != nil {
		err = fmt.Errorf("drain server: %w", cerr)
	}
	return rep, err
}

// drive runs one workload's measured phase against a seeded bed and
// computes every metric. With trace it also runs the traced replays and
// writes the spans to outDir.
func drive(ctx context.Context, b *bed, w workload, seed int64, trace bool) (*report, error) {
	r, err := newRunner(ctx, b, w, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	p, err := r.measure(ctx)
	if err != nil {
		return nil, err
	}

	// On cycle_mixed the cycles that matter ran under traffic; elsewhere
	// the only cycles are the seeding ones.
	cycleS, cycles := b.seedCycleS, b.seedCycles
	if w.cycles {
		cycleS, cycles = p.cycleS, p.cycles
	}
	space, err := b.spaceRatio()
	if err != nil {
		return nil, err
	}
	r.ref = nil // the harness's own 24 MB must not count as the server's heap
	runtime.GC()
	runtime.GC() // the second pass empties the sync.Pool victim caches the first one filled
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	n := float64(p.attempted)
	values := map[string]float64{
		"setup_s":            b.setupS,
		"alloc_kb_per_query": p.allocKB / n,
		"ok_share":           float64(p.attempted-p.failed) / n,
		"cache_space_ratio":  space,
		"heap_live_mb":       float64(ms.HeapAlloc) / 1e6,
	}
	rep := &report{
		Workload: w.name, Seed: seed,
		Attempted: p.attempted, Failed: p.failed, Failure: p.firstFailure,
		EndToEnd:  map[string]metric{},
		PerLayer:  phaseMetrics(p, cycles, cycleS),
		WindowQPS: p.windowQPS,
		Samples: map[string]int{
			"setup_s":           setupRepeats,
			"serve.lat_p50_ms":  len(p.latMS),
			"serve.lat_p95_ms":  len(p.latMS),
			"serve.qps":         len(p.windowQPS),
			"core.cycle.wall_s": len(cycleS),
		},
		Environment: environment(b, w, seed),
	}
	for _, e := range endToEnd {
		rep.EndToEnd[e.name] = metric{values[e.name], e.unit}
	}
	rep.Gates = gates(w, p, rep.PerLayer)
	if trace {
		spans, err := r.tracedMetrics(ctx, p, rep.PerLayer)
		if err != nil {
			return nil, err
		}
		rep.SelfTime = selfTable(spans)
		if err := writeChromeTrace(traceFile(w.name), spans, rep.SelfTime, rep.Environment); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	rep.Correct = p.failed == 0 && len(rep.Gates) == 0
	return rep, nil
}

// gates checks the preconditions each workload exists to hold. A run that
// breaks one measured the wrong lane, so its numbers must not be used.
func gates(w workload, p *phase, layer map[string]metric) []string {
	var failed []string
	gate := func(ok bool, format string, args ...any) {
		if !ok {
			failed = append(failed, fmt.Sprintf(format, args...))
		}
	}
	v := func(name string) float64 { return layer[name].Value }
	switch w.name {
	case "hot_cached":
		gate(p.modes["cached"]+p.modes["combined"] == p.attempted-p.failed,
			"hot_cached.plan_mode: every reply must be cached or combined, got %v", p.modes)
		gate(v("sqlengine.parse_docs_per_query") == 0,
			"hot_cached.parse_docs: JSON parsing must be zero, got %g docs/query", v("sqlengine.parse_docs_per_query"))
		gate(v("scanshare.coalesced_share") == 0,
			"hot_cached.coalesced: clients are split by table, yet %g of queries coalesced", v("scanshare.coalesced_share"))
	case "cold_raw":
		gate(p.modes["raw"] == p.attempted-p.failed,
			"cold_raw.plan_mode: every reply must be raw, got %v", p.modes)
		gate(v("scanshare.coalesced_share") == 0,
			"cold_raw.coalesced: clients are split by table, yet %g of queries coalesced", v("scanshare.coalesced_share"))
	case "small_fixed":
		gate(v("scanshare.coalesced_share") > 0.8,
			"small_fixed.coalesced: both clients send the same statement together, yet only %g coalesced", v("scanshare.coalesced_share"))
	case "cycle_mixed":
		gate(len(p.cycles) == numWindows,
			"cycle_mixed.cycles: %d of %d midnight cycles succeeded", len(p.cycles), numWindows)
		for day, rep := range p.cycles {
			gate(rep.Selected > 0 && rep.Selected < rep.CandidateMPJP,
				"cycle_mixed.budget: day %d selected %d of %d candidates; the budget must hold some and not all",
				day+1, rep.Selected, rep.CandidateMPJP)
		}
		modes := 0
		for _, c := range p.modes {
			if c > 0 {
				modes++
			}
		}
		gate(modes >= 2, "cycle_mixed.plan_mode: want at least two plan modes, got %v", p.modes)
	}
	return failed
}

// printReport writes every metric by name with its unit.
func printReport(rep *report, trace bool) {
	fmt.Printf("== %s  seed %d  (%d requests, %d failed)\n", rep.Workload, rep.Seed, rep.Attempted, rep.Failed)
	for _, e := range endToEnd {
		m := rep.EndToEnd[e.name]
		line := fmt.Sprintf("  %-44s %14.6g %s", e.name, m.Value, m.Unit)
		if n, ok := rep.Samples[e.name]; ok {
			line += fmt.Sprintf("   (n=%d)", n)
		}
		fmt.Println(line)
	}
	names := make([]string, 0, len(rep.PerLayer))
	for name := range rep.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.PerLayer[name]
		line := fmt.Sprintf("  %-44s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := rep.Samples[name]; ok {
			line += fmt.Sprintf("   (n=%d)", n)
		}
		fmt.Println(line)
	}
	if trace {
		fmt.Println("  self time by layer (duration minus child coverage):")
		for _, row := range rep.SelfTime {
			fmt.Printf("    %-34s %6d spans %12.3f ms %6.1f %%\n", row.Name, row.Spans, row.SelfMS, 100*row.Share)
		}
		fmt.Printf("  spans written to %s\n", traceFile(rep.Workload))
	}
	if rep.Failure != "" {
		fmt.Printf("  FIRST FAILURE: %s\n", rep.Failure)
	}
	for _, g := range rep.Gates {
		fmt.Printf("  FAILED GATE %s\n", g)
	}
}
