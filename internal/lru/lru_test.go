package lru

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/pathkey"
)

func key(i int) pathkey.Key {
	return pathkey.Key{DB: "db", Table: fmt.Sprintf("t%d", i%5), Column: "c", Path: fmt.Sprintf("$.f%d", i)}
}

func TestMissThenHit(t *testing.T) {
	c := New(1000)
	if c.Access(key(1), 0, 100) {
		t.Error("first access should miss")
	}
	if !c.Access(key(1), 0, 100) {
		t.Error("second access should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v", st.HitRatio())
	}
}

func TestEvictionIsLRU(t *testing.T) {
	c := New(300)
	c.Access(key(1), 0, 100)
	c.Access(key(2), 0, 100)
	c.Access(key(3), 0, 100)
	// Refresh key 1 so key 2 is the LRU.
	c.Access(key(1), 0, 100)
	// Insert key 4 → evicts key 2.
	c.Access(key(4), 0, 100)
	if !c.Contains(key(1), 0) || c.Contains(key(2), 0) || !c.Contains(key(3), 0) || !c.Contains(key(4), 0) {
		t.Errorf("LRU eviction picked the wrong victim")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(100)
	c.Access(key(1), 0, 500)
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("oversized value should not be cached")
	}
}

func TestVersioningSeparatesEntries(t *testing.T) {
	c := New(1000)
	c.Access(key(1), 0, 100)
	if c.Access(key(1), 1, 100) {
		t.Error("new version should miss")
	}
	if !c.Contains(key(1), 0) || !c.Contains(key(1), 1) {
		t.Error("both versions should be cached")
	}
}

// Property: used bytes always equal the sum of cached entry sizes and never
// exceed the budget.
func TestQuickBudgetInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(500)
		for _, op := range ops {
			i := int(op % 50)
			size := int64(op%7)*30 + 10
			c.Access(key(i), int64(op%3), size)
			if c.Used() > c.Budget() || c.Used() < 0 {
				return false
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == int64(len(ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInstrumentGauges(t *testing.T) {
	c := New(1000)
	reg := obs.NewRegistry()
	c.Instrument(reg, "fig14")
	c.Instrument(nil, "noop") // must not panic

	c.Access(key(1), 0, 100) // miss + insert
	c.Access(key(1), 0, 100) // hit
	c.Access(key(2), 0, 950) // miss, evicts key(1)

	snap := reg.Snapshot()
	l := obs.L{K: "cache", V: "fig14"}
	checks := map[string]int64{
		"lru_used_bytes":      950,
		"lru_budget_bytes":    1000,
		"lru_entry_count":     1,
		"lru_hits_total":      1,
		"lru_misses_total":    2,
		"lru_evictions_total": 1,
		"lru_inserted_total":  2,
	}
	for name, want := range checks {
		if got := snap.Gauge(name, l); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
