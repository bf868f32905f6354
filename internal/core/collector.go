// Package core implements Maxson itself: the JSONPath Collector, the
// LSTM+CRF-based JSONPath Predictor with its classical baselines, the
// scoring function, the JSONPath Cacher, the MaxsonParser plan modifier,
// and the Value Combiner with cross-table predicate pushdown — orchestrated
// by the daily midnight cycle (paper §III-B, Fig 5).
package core

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/pathkey"
	"repro/internal/sqlengine"
)

// Collector is the JSONPath Collector: it observes executed queries,
// extracts each get_json_object's location (database, table, column) and
// JSONPath, and keeps one record, partitioned by day (paper Fig 5): how many
// queries referenced each distinct path multiset, a query's path keys sorted
// with a path named twice kept twice. Recurring queries (Fig 2) make a day's
// multisets few. Both readers derive their inputs exactly from the record:
// the predictor's per-path daily counts (CountsFor) and the scorer's O_j and
// R_j (PathSets). Each multiset is interned once, shared by the days that
// count it, and dropped with the last of them (Retire).
type Collector struct {
	mu sync.Mutex
	// days[epochDay][set] is how many queries referenced set that day.
	days map[int64]map[*pathSet]int
	// sets interns each multiset a retained day counts, by its encoding.
	sets map[string]*pathSet
	// buf and id are add's scratch, reused under mu.
	buf []pathkey.Key
	id  []byte
}

// pathSet is one interned path multiset.
type pathSet struct {
	id   string        // its key in Collector.sets
	keys []pathkey.Key // sorted by pathkey.Compare, duplicates kept
	days int           // how many retained days count it
}

// PathSetCount is how many queries over a range of days referenced one path
// multiset. Paths is shared with the collector and must not be modified.
type PathSetCount struct {
	Paths []pathkey.Key
	Count int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{days: make(map[int64]map[*pathSet]int), sets: make(map[string]*pathSet)}
}

// ObserveStmt records the JSONPaths of one executed statement. defaultDB
// qualifies unqualified table references.
func (c *Collector) ObserveStmt(stmt *sqlengine.SelectStmt, defaultDB string, at time.Time) {
	refs := []sqlengine.TableRef{stmt.From}
	if stmt.Join != nil {
		refs = append(refs, stmt.Join.Right)
	}
	var keys []pathkey.Key
	for _, jp := range stmt.JSONPaths() {
		// The path belongs to the first table its qualifier binds, if any.
		for _, r := range refs {
			if q := jp.Column.Qualifier; q == "" || strings.EqualFold(r.Binding(), q) {
				keys = append(keys, pathkey.Key{
					DB: cmp.Or(r.DB, defaultDB), Table: r.Table, Column: jp.Column.Name, Path: jp.Path.Canonical(),
				})
				break
			}
		}
	}
	c.Observe(keys, at)
}

// Observe records one query's path accesses. Only a multiset the collector
// has not seen allocates.
func (c *Collector) Observe(paths []pathkey.Key, at time.Time) {
	if len(paths) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf[:0], paths...)
	c.add(epochDay(at), c.buf, 1)
}

// add counts n queries of the multiset keys on day. It sorts keys in place
// and copies them only to intern a new multiset. Callers hold mu.
func (c *Collector) add(day int64, keys []pathkey.Key, n int) {
	slices.SortFunc(keys, pathkey.Compare)
	c.id = c.id[:0]
	for _, k := range keys {
		for _, f := range [...]string{k.DB, k.Table, k.Column, k.Path} {
			c.id = append(binary.AppendUvarint(c.id, uint64(len(f))), f...)
		}
	}
	set, ok := c.sets[string(c.id)]
	if !ok {
		set = &pathSet{id: string(c.id), keys: slices.Clone(keys)}
		c.sets[set.id] = set
	}
	counts, ok := c.days[day]
	if !ok {
		counts = make(map[*pathSet]int)
		c.days[day] = counts
	}
	if _, ok := counts[set]; !ok {
		set.days++
	}
	counts[set] += n
}

// each calls fn for every multiset counted on day d of the days days from
// start. Callers hold mu.
func (c *Collector) each(start time.Time, days int, fn func(d int, set *pathSet, n int)) {
	for d := 0; d < days; d++ {
		for set, n := range c.days[epochDay(start)+int64(d)] {
			fn(d, set, n)
		}
	}
}

// CountsFor returns the per-day access counts of every observed path over
// the [start, start+days) window: result[key][d]. A query naming a path
// twice counts it twice.
func (c *Collector) CountsFor(start time.Time, days int) map[pathkey.Key][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[pathkey.Key][]int)
	c.each(start, days, func(d int, set *pathSet, n int) {
		for _, key := range set.keys {
			if out[key] == nil {
				out[key] = make([]int, days)
			}
			out[key][d] += n
		}
	})
	return out
}

// PathSets returns how many queries referenced each multiset over the
// [start, start+days) window, in no particular order.
func (c *Collector) PathSets(start time.Time, days int) []PathSetCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := make(map[*pathSet]int)
	c.each(start, days, func(_ int, set *pathSet, n int) { total[set] += n })
	out := make([]PathSetCount, 0, len(total))
	for set, n := range total {
		out = append(out, PathSetCount{Paths: set.keys, Count: n})
	}
	return out
}

// Retire drops every day before the one holding t, and every multiset only
// those days counted.
func (c *Collector) Retire(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for day, counts := range c.days {
		if day >= epochDay(t) {
			continue
		}
		for set := range counts {
			if set.days--; set.days == 0 {
				delete(c.sets, set.id)
			}
		}
		delete(c.days, day)
	}
}
