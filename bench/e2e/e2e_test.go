package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{50, 30},  // ceil(2.5) = 3rd
		{95, 50},  // ceil(4.75) = 5th
		{20, 10},  // exactly the 1st
		{21, 20},  // just past it
		{100, 50}, // the maximum
		{1, 10},   // never below the minimum
	} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if vs[0] != 50 {
		t.Error("percentile must not reorder its input")
	}
}

func TestMedianOfWindows(t *testing.T) {
	if got := median([]float64{84, 51, 70}); got != 70 {
		t.Errorf("odd count: median = %v, want 70", got)
	}
	if got := median([]float64{84, 51, 70, 60}); got != 65 {
		t.Errorf("even count: median = %v, want 65", got)
	}
	// One stalled window must not move the median the way it moves the mean.
	windows := []float64{70, 71, 69, 70, 12, 70, 71, 69}
	if got := median(windows); got != 70 {
		t.Errorf("median with an outlier window = %v, want 70", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got, want := iqrShare([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},  // 30
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},  // overlaps a by 10
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // sticks out by 20
		{Name: "a1", Start: ms(15), End: ms(20), Parent: 1}, // grandchild: a's business only
		{Name: "lone", Start: ms(200), End: ms(230), Parent: -1},
	}
	self := selfTimes(spans)
	// root: 100 - union([10,60] + [90,100]) = 100 - 60 = 40.
	want := []time.Duration{ms(40), ms(25), ms(30), ms(30), ms(5), ms(30)}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	rows := selfTable(spans)
	if rows[0].Name != "root" || rows[0].SelfMS != 40 {
		t.Errorf("selfTable leads with %+v, want root at 40 ms", rows[0])
	}
	var shares float64
	for _, r := range rows {
		shares += r.Share
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("self-time shares sum to %v, want 1", shares)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	docs := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for _, tab := range tables {
			for _, row := range tableRows(tab.doc, rng, 1, 0, 50) {
				out = append(out, row[1].S)
			}
		}
		return out
	}
	a, b, c := docs(7), docs(7), docs(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed must give the same documents")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("another seed must give other documents")
	}
	for _, d := range a {
		var v map[string]any
		if err := json.Unmarshal([]byte(d), &v); err != nil {
			t.Fatalf("generated document is not JSON: %v\n%s", err, d)
		}
		if len(d) < 250 || len(d) > 350 {
			t.Fatalf("document is %d B, want about 290: %s", len(d), d)
		}
	}

	o1 := windowOrder(rand.New(rand.NewSource(3)), 25, 4)
	o2 := windowOrder(rand.New(rand.NewSource(3)), 25, 4)
	o3 := windowOrder(rand.New(rand.NewSource(4)), 25, 4)
	if !reflect.DeepEqual(o1, o2) {
		t.Error("the same seed must give the same request order")
	}
	if reflect.DeepEqual(o1, o3) {
		t.Error("another seed must give another request order")
	}
	// The mix itself never depends on the seed: Zipf by rank, exact.
	counts := func(order []int) []int {
		c := make([]int, 4)
		for _, t := range order {
			c[t]++
		}
		return c
	}
	if got, want := counts(o1), []int{12, 6, 4, 3}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(counts(o3), want) {
		t.Errorf("window mix = %v and %v, want %v on every seed", got, counts(o3), want)
	}
	for _, n := range []int{1, 2, 7, 100} {
		sum := 0
		for _, c := range zipfCounts(n, 4) {
			sum += c
		}
		if sum != n {
			t.Errorf("zipfCounts(%d, 4) sums to %d", n, sum)
		}
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads at 1/50 of the rows and of the requests
// with the gates on, one of them traced, and checks that what the program
// reports is exactly what BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads end to end")
	}
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract benchmarkJSON
	if err := json.Unmarshal(blob, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(contract.Workloads), len(workloads))
	}
	if contract.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the counts are fixed for %d", contract.RunSeconds, runSeconds)
	}
	for i, w := range workloads {
		if contract.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, contract.Workloads[i].Name, w.name)
		}
	}
	outDir = t.TempDir()
	// hot_cached, cold_raw and small_fixed are seeded alike, so one bed
	// serves all three here; cycle_mixed has its own budget and seed mix, and
	// runs beside them on its own bed (most of a scaled-down run is waiting
	// out the 2 ms scan-share window). The counters the gates read are per
	// system, so the two do not disturb each other's.
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, group := range [][]workload{workloads[:3], workloads[3:]} {
		wg.Add(1)
		go func(group []workload) {
			defer wg.Done()
			b, err := newBed(ctx, group[0], 1, 50)
			if err != nil {
				t.Error(err)
				return
			}
			defer b.close()
			for _, w := range group {
				smoke(ctx, t, b, w, contract, w.name == "hot_cached") // one traced run is enough to check the per-layer names
			}
		}(group)
	}
	wg.Wait()
}

func smoke(ctx context.Context, t *testing.T, b *bed, w workload, contract benchmarkJSON, traced bool) {
	rep, err := drive(ctx, b, w, 1, traced)
	if err != nil {
		t.Errorf("%s: %v", w.name, err)
		return
	}
	if !rep.Correct {
		t.Errorf("%s: %d of %d failed (%s), gates %v", w.name, rep.Failed, rep.Attempted, rep.Failure, rep.Gates)
	}
	for _, m := range contract.EndToEnd {
		if got, ok := rep.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: end-to-end %s [%s] promised, got %+v", w.name, m.Name, m.Unit, got)
		} else if got.Value <= 0 {
			t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, m.Name, got.Value)
		}
	}
	if len(rep.EndToEnd) != len(contract.EndToEnd) {
		t.Errorf("%s: reports %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(rep.EndToEnd), len(contract.EndToEnd))
	}
	if !traced {
		return
	}
	for _, m := range contract.PerLayer {
		if got, ok := rep.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: per-layer %s [%s] promised, got %+v", w.name, m.Name, m.Unit, got)
		}
	}
	if len(rep.PerLayer) != len(contract.PerLayer) {
		t.Errorf("%s: reports %d per-layer metrics, BENCHMARK.json lists %d", w.name, len(rep.PerLayer), len(contract.PerLayer))
	}
	if _, err := os.Stat(traceFile(w.name)); err != nil {
		t.Errorf("%s: no trace written: %v", w.name, err)
	}
}
