package main

import "fmt"

const (
	numClients = 2  // closed loop: 2 persistent connections, whatever nproc is
	numWindows = 16 // equal-count windows the measured phase is cut into
	// runSeconds is about how long the fixed request counts below keep the
	// 2-core reference box busy, and BENCHMARK.json's run_seconds. The counts
	// are constants: nothing is calibrated at any other length, so -seconds
	// accepts no other value.
	runSeconds = 12
)

// workload is one traffic mix. Clients are partitioned by table so that two
// requests never meet in the scan-share window by accident; lockstep is the
// opposite case, where both clients send the same statement at the same
// time and coalescing is the point.
type workload struct {
	name string
	// clients[c] is client c's template list in Zipf rank order.
	clients  [numClients][]template
	lockstep bool
	// perWindow is each client's request count in one window. Counts, not
	// durations, drive the run, so the work is identical from run to run;
	// they are sized so that the 16 windows take about runSeconds on the
	// 2-core reference box.
	perWindow int
	// cycles marks cycle_mixed: every window is a simulated day with an
	// append before it and a midnight cycle in the middle of it.
	cycles bool
}

var workloads = []workload{
	{
		// Every queried path was cached by the midnight cycle, so JSON
		// parsing must be zero: the paper's payoff case.
		name: "hot_cached",
		clients: [numClients][]template{
			shapes("sales", "hot", salesHot), shapes("machines", "hot", machinesHot)},
		perWindow: 34, // 1,088 requests
	},
	{
		// The same shapes over never-cached paths: dfs read, ORC string
		// decode and JSON extraction dominate and the cache is bypassed.
		name: "cold_raw",
		clients: [numClients][]template{
			shapes("sales", "cold", salesCold), shapes("machines", "cold", machinesCold)},
		perWindow: 9, // 288 requests
	},
	{
		// LIMIT and COUNT on a 64-row table: HTTP, admission, SQL parse,
		// planning and the scan-share window are the whole request.
		name:      "small_fixed",
		clients:   [numClients][]template{tinyTemplates, tinyTemplates},
		lockstep:  true,
		perWindow: 274, // 8,768 requests
	},
	{
		// Appends and midnight cycles run beside reads with a budget the
		// candidate set exceeds: plans mix cached, combined, fallback, raw.
		name: "cycle_mixed",
		clients: [numClients][]template{
			mixedTemplates("sales", salesHot, salesCold), mixedTemplates("machines", machinesHot, machinesCold)},
		perWindow: 8, // 256 requests: 16 a day
		cycles:    true,
	},
}

// mixedTemplates interleaves hot- and cold-family shapes: six paths per
// table compete for a budget that holds about 40 % of them.
func mixedTemplates(table string, hot, cold fields) []template {
	h, c := shapes(table, "hot", hot), shapes(table, "cold", cold)
	return []template{h[0], c[1], h[2], c[3]}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// seedMix is what ran on the seeded days: the workload's own templates on
// cycle_mixed (so its candidate set exceeds its budget from the first
// cycle), the hot families everywhere else, and prod.tiny's two statements.
func (w workload) seedMix() []template {
	var mix []template
	if w.cycles {
		mix = append(mix, w.clients[0]...)
		mix = append(mix, w.clients[1]...)
	} else {
		mix = append(mix, shapes("sales", "hot", salesHot)...)
		mix = append(mix, shapes("machines", "hot", machinesHot)...)
	}
	return append(mix, tinyTemplates...)
}

// windowRequests is perWindow at the bed's scale (1 except in tests). Four
// is the floor: fewer and the Zipf mix drops templates.
func (w workload) windowRequests(scale int) int {
	n := w.perWindow / scale
	if n < 4 {
		n = 4
	}
	return n
}
