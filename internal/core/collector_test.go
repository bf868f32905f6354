package core

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/pathkey"
)

// alwaysMPJP predicts every path an MPJP, so a cycle runs all five stages
// without training a model.
type alwaysMPJP struct{}

func (alwaysMPJP) Name() string        { return "always" }
func (alwaysMPJP) Train([]*Sample)     {}
func (alwaysMPJP) Predict(*Sample) int { return 1 }

func saleKey(path string) pathkey.Key {
	return pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: path}
}

// profileAll runs the cycle's score stage as of now with every path of the
// history window a candidate.
func profileAll(m *Maxson, now time.Time) []*PathProfile {
	histStart := now.AddDate(0, 0, -m.Window-1) // as the cycle computes it
	counts := m.Collector.CountsFor(histStart, m.Window+1)
	candidates := sortedCountKeys(counts)
	mpjp := make(map[pathkey.Key]bool, len(candidates))
	for _, k := range candidates {
		mpjp[k] = true
	}
	return m.profile(histStart, candidates, mpjp)
}

// TestCollectorSurvivesRestart checks that a node restarted through
// SaveState/LoadState scores exactly as one that never stopped: the same
// occurrence and relevance for every path, so the same selection.
func TestCollectorSurvivesRestart(t *testing.T) {
	f := newFixture(t)
	cfg := Config{BudgetBytes: 1 << 30, Window: 3, DefaultDB: "mydb", Model: alwaysMPJP{}}
	m := New(f.engine, cfg)
	daily := []struct {
		sql  string
		reps int
	}{
		{`SELECT get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`, 5},
		{`SELECT get_json_object(sale_logs, '$.price') p, get_json_object(sale_logs, '$.turnover') tv FROM mydb.t`, 3},
		{fig1Query, 1},
	}
	for day := 0; day < 7; day++ {
		f.clock.Advance(10 * time.Hour)
		for _, q := range daily {
			for i := 0; i < q.reps; i++ {
				if _, _, err := m.QueryCtx(context.Background(), q.sql); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.AdvanceToMidnight()
	}
	if err := m.SaveState(); err != nil {
		t.Fatal(err)
	}
	restarted := New(f.engine, cfg)
	if err := restarted.LoadState(); err != nil {
		t.Fatal(err)
	}

	now := f.clock.Now()
	want, got := profileAll(m, now), profileAll(restarted, now)
	if len(want) != 4 {
		t.Fatalf("profiled %d paths, want 4", len(want))
	}
	for i := range want {
		if want[i].Occurrence == 0 {
			t.Errorf("%s: occurrence 0 on the node that never stopped", want[i].Key.Path)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("profile %d after restart = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A budget for two paths: the restarted node picks by score, not by name.
	budget := want[0].TotalValueBytes + want[1].TotalValueBytes
	keys := func(profiles []*PathProfile) []pathkey.Key {
		var out []pathkey.Key
		for _, p := range profiles {
			out = append(out, p.Key)
		}
		return out
	}
	if g, w := keys(SelectUnderBudget(got, budget)), keys(SelectUnderBudget(want, budget)); !slices.Equal(g, w) {
		t.Errorf("selected after restart = %v, want %v", g, w)
	}
}

// TestScoreReadsTheCollectWindow checks that a cycle off midnight scores the
// whole days it collects: nothing from today, all of the oldest day.
func TestScoreReadsTheCollectWindow(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, Window: 3, DefaultDB: "mydb", Model: alwaysMPJP{}})
	today := f.clock.Now() // midnight
	oldest := today.AddDate(0, 0, -m.Window-1)
	m.Collector.Observe([]pathkey.Key{saleKey("$.turnover")}, today.Add(8*time.Hour))
	m.Collector.Observe([]pathkey.Key{saleKey("$.price")}, oldest.Add(8*time.Hour))

	cycleAt := today.Add(10 * time.Hour)
	profiles := m.profile(cycleAt.AddDate(0, 0, -m.Window-1), []pathkey.Key{saleKey("$.turnover"), saleKey("$.price")}, nil)
	occurrence := map[string]int{}
	for _, p := range profiles {
		occurrence[p.Key.Path] = p.Occurrence
	}
	if occurrence["$.turnover"] != 0 {
		t.Errorf("today's query counted: O = %d", occurrence["$.turnover"])
	}
	if occurrence["$.price"] != 1 {
		t.Errorf("oldest day's 08:00 query: O = %d, want 1", occurrence["$.price"])
	}
}

// TestCollectorHistoryIsBounded runs a year of daily queries and cycles: the
// collector keeps the training horizon plus today, and no multiset those
// days do not count.
func TestCollectorHistoryIsBounded(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{BudgetBytes: 1 << 30, Window: 3, DefaultDB: "mydb", Model: alwaysMPJP{}})
	paths := []string{"$.turnover", "$.price", "$.item_id", "$.item_name"}
	for day := 0; day < 365; day++ {
		f.clock.Advance(10 * time.Hour)
		// A multiset that recurs every day and one that changes weekly.
		m.Collector.Observe([]pathkey.Key{saleKey("$.turnover"), saleKey("$.turnover")}, f.clock.Now())
		m.Collector.Observe([]pathkey.Key{saleKey(paths[day/7%4]), saleKey(paths[(day/7+1)%4])}, f.clock.Now())
		m.AdvanceToMidnight()
		if _, err := m.RunMidnightCycleCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		m.Collector.Observe([]pathkey.Key{saleKey("$.price")}, f.clock.Now().Add(time.Hour))
	}

	c := m.Collector
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.days) > 4*m.Window+1 {
		t.Errorf("collector holds %d days, want at most %d", len(c.days), 4*m.Window+1)
	}
	counted := map[*pathSet]bool{}
	for _, counts := range c.days {
		for set := range counts {
			counted[set] = true
		}
	}
	for id, set := range c.sets {
		if !counted[set] {
			t.Errorf("multiset %v interned but no retained day counts it", set.keys)
		}
		if c.sets[set.id] != set || id != set.id {
			t.Errorf("multiset %v interned under the wrong id", set.keys)
		}
	}
	if len(c.sets) != len(counted) {
		t.Errorf("%d multisets interned, %d counted", len(c.sets), len(counted))
	}
}

// TestObserveAllocatesOnlyNewMultisets checks that recording a query whose
// path multiset the collector already holds allocates nothing.
func TestObserveAllocatesOnlyNewMultisets(t *testing.T) {
	c := NewCollector()
	at := time.Date(2019, 1, 1, 10, 0, 0, 0, time.UTC)
	paths := []pathkey.Key{saleKey("$.turnover"), saleKey("$.price"), saleKey("$.turnover")}
	c.Observe(paths, at)
	if n := testing.AllocsPerRun(100, func() { c.Observe(paths, at) }); n != 0 {
		t.Errorf("Observe of a known multiset allocates %v times", n)
	}
	if !slices.Equal(paths, []pathkey.Key{saleKey("$.turnover"), saleKey("$.price"), saleKey("$.turnover")}) {
		t.Errorf("Observe reordered its argument: %v", paths)
	}
	got := c.PathSets(at, 1)
	want := []PathSetCount{{Paths: []pathkey.Key{saleKey("$.price"), saleKey("$.turnover"), saleKey("$.turnover")}, Count: 102}} // AllocsPerRun warms up once
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PathSets = %v, want %v", got, want)
	}
}
