package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/pathkey"
)

func TestStatsSaveLoadRoundTrip(t *testing.T) {
	f := newFixture(t)
	c := NewCollector()
	k1 := pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"}
	k2 := pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.item_id"}
	day1 := f.clock.Now()
	day2 := day1.Add(24 * time.Hour)
	c.Observe([]pathkey.Key{k1, k1, k2}, day1)
	c.Observe([]pathkey.Key{k1}, day2)

	n, err := c.SaveStats(f.wh)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // day1's multiset {k2, k1, k1}, day2's {k1}
		t.Errorf("rows written = %d, want 4", n)
	}

	restored := NewCollector()
	m, err := restored.LoadStats(f.wh)
	if err != nil {
		t.Fatal(err)
	}
	if m != 4 {
		t.Errorf("rows loaded = %d", m)
	}
	counts := restored.CountsFor(day1, 2)
	if counts[k1][0] != 2 || counts[k1][1] != 1 || counts[k2][0] != 1 {
		t.Errorf("restored counts = %v", counts)
	}
	// The multisets survive whole, the repeated k1 included.
	for d, at := range []time.Time{day1, day2} {
		if got, want := restored.PathSets(at, 1), c.PathSets(at, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("day %d multisets = %v, want %v", d+1, got, want)
		}
	}
}

func TestStatsSaveReplacesSnapshot(t *testing.T) {
	f := newFixture(t)
	c := NewCollector()
	k := pathkey.Key{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.a"}
	c.Observe([]pathkey.Key{k}, f.clock.Now())
	if _, err := c.SaveStats(f.wh); err != nil {
		t.Fatal(err)
	}
	// Second save with more data replaces, not appends.
	c.Observe([]pathkey.Key{k}, f.clock.Now())
	if _, err := c.SaveStats(f.wh); err != nil {
		t.Fatal(err)
	}
	restored := NewCollector()
	if _, err := restored.LoadStats(f.wh); err != nil {
		t.Fatal(err)
	}
	counts := restored.CountsFor(f.clock.Now(), 1)
	if counts[k][0] != 2 {
		t.Errorf("count after re-save = %d, want 2 (replace semantics)", counts[k][0])
	}
}

func TestLoadStatsFromEmptyWarehouse(t *testing.T) {
	f := newFixture(t)
	c := NewCollector()
	n, err := c.LoadStats(f.wh)
	if err != nil || n != 0 {
		t.Errorf("LoadStats on empty warehouse = (%d, %v)", n, err)
	}
}

func TestSaveLoadStateEndToEnd(t *testing.T) {
	f := newFixture(t)
	m := New(f.engine, Config{
		BudgetBytes: 1 << 30, Window: 3, DefaultDB: "mydb",
		Model: NewLSTMCRF(LSTMConfig{Hidden: 8, Epochs: 6, LR: 0.02, Seed: 1, Batch: 8}),
	})
	// Build history and run a cycle so the model trains.
	for day := 0; day < 10; day++ {
		for rep := 0; rep < 3; rep++ {
			m.Collector.Observe([]pathkey.Key{
				{DB: "mydb", Table: "t", Column: "sale_logs", Path: "$.turnover"},
			}, f.clock.Now())
		}
		f.clock.Advance(24 * time.Hour)
	}
	m.AdvanceToMidnight()
	if _, err := m.RunMidnightCycleCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !m.ModelTrained {
		t.Fatal("model not trained")
	}
	if err := m.SaveState(); err != nil {
		t.Fatal(err)
	}

	// A "restarted node": fresh Maxson over the same warehouse.
	m2 := New(f.engine, Config{
		BudgetBytes: 1 << 30, Window: 3, DefaultDB: "mydb",
		Model: NewLSTMCRF(LSTMConfig{Hidden: 8, Epochs: 6, LR: 0.02, Seed: 1, Batch: 8}),
	})
	if err := m2.LoadState(); err != nil {
		t.Fatal(err)
	}
	if !m2.ModelTrained {
		t.Fatal("restored node should have a trained model")
	}
	report, err := m2.RunMidnightCycleCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.TrainSamples != 0 {
		t.Errorf("restored node retrained (%d samples); weights should carry over", report.TrainSamples)
	}
	if report.Selected == 0 {
		t.Errorf("restored node cached nothing: %+v", report)
	}
}
