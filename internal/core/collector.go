// Package core implements Maxson itself: the JSONPath Collector, the
// LSTM+CRF-based JSONPath Predictor with its classical baselines, the
// scoring function, the JSONPath Cacher, the MaxsonParser plan modifier,
// and the Value Combiner with cross-table predicate pushdown — orchestrated
// by the daily midnight cycle (paper §III-B, Fig 5).
package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/pathkey"
	"repro/internal/simtime"
	"repro/internal/sqlengine"
)

// Collector is the JSONPath Collector: it observes executed queries,
// extracts each get_json_object's location (database, table, column) and
// JSONPath, and maintains a statistics table partitioned by date with the
// access count per path per day (paper Fig 5).
type Collector struct {
	mu sync.Mutex
	// statsByDate[dateKey][key] = access count.
	statsByDate map[string]map[pathkey.Key]int
	// queryLog keeps per-query path sets for the scoring function's
	// relevance and occurrence terms.
	queryLog []QueryRecord
}

// QueryRecord is one observed query: the paths it referenced and when.
type QueryRecord struct {
	Time  time.Time
	Paths []pathkey.Key
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{statsByDate: make(map[string]map[pathkey.Key]int)}
}

// ObserveStmt records the JSONPaths of one executed statement. defaultDB
// qualifies unqualified table references.
func (c *Collector) ObserveStmt(stmt *sqlengine.SelectStmt, defaultDB string, at time.Time) {
	resolve := func(binding string) (db, table string, ok bool) {
		refs := []sqlengine.TableRef{stmt.From}
		if stmt.Join != nil {
			refs = append(refs, stmt.Join.Right)
		}
		for _, r := range refs {
			if binding == "" || equalsFold(r.Binding(), binding) {
				db := r.DB
				if db == "" {
					db = defaultDB
				}
				return db, r.Table, true
			}
		}
		return "", "", false
	}
	var keys []pathkey.Key
	for _, jp := range stmt.JSONPaths() {
		db, table, ok := resolve(jp.Column.Qualifier)
		if !ok {
			continue
		}
		keys = append(keys, pathkey.Key{
			DB: db, Table: table, Column: jp.Column.Name, Path: jp.Path.Canonical(),
		})
	}
	c.Observe(keys, at)
}

// Observe records a query's path accesses directly.
func (c *Collector) Observe(paths []pathkey.Key, at time.Time) {
	if len(paths) == 0 {
		return
	}
	date := simtime.DateKey(at)
	c.mu.Lock()
	defer c.mu.Unlock()
	day, ok := c.statsByDate[date]
	if !ok {
		day = make(map[pathkey.Key]int)
		c.statsByDate[date] = day
	}
	for _, p := range paths {
		day[p]++
	}
	c.queryLog = append(c.queryLog, QueryRecord{Time: at, Paths: append([]pathkey.Key{}, paths...)})
}

// CountsFor returns the per-day access counts of every observed path over
// the [start, start+days) window: result[key][d].
func (c *Collector) CountsFor(start time.Time, days int) map[pathkey.Key][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[pathkey.Key][]int)
	for d := 0; d < days; d++ {
		date := simtime.DateKey(start.AddDate(0, 0, d))
		for key, n := range c.statsByDate[date] {
			counts, ok := out[key]
			if !ok {
				counts = make([]int, days)
				out[key] = counts
			}
			counts[d] = n
		}
	}
	return out
}

// Queries returns the observed query records within [from, to).
func (c *Collector) Queries(from, to time.Time) []QueryRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []QueryRecord
	for _, q := range c.queryLog {
		if !q.Time.Before(from) && q.Time.Before(to) {
			out = append(out, q)
		}
	}
	return out
}

// ObservedKeys lists every path ever observed, in deterministic order.
func (c *Collector) ObservedKeys() []pathkey.Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := make(map[pathkey.Key]bool)
	for _, day := range c.statsByDate {
		for k := range day {
			set[k] = true
		}
	}
	keys := make([]pathkey.Key, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return pathkey.Less(keys[i], keys[j]) })
	return keys
}

func equalsFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
