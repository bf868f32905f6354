// Package lru implements the online caching baseline the paper compares
// Maxson against in Fig 14: JSONPath values enter the cache when they are
// first accessed (so the first access always misses and pays the parse),
// and a least-recently-used policy evicts under a byte budget.
package lru

import (
	"container/list"

	"repro/internal/obs"
	"repro/internal/pathkey"
)

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Inserted  int64
}

// HitRatio returns hits / (hits + misses), 0 when no accesses occurred.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a byte-budgeted LRU over JSONPath value sets. The cached unit is
// one path's parsed values for one data version (matching Maxson's cache
// granularity so the comparison is apples-to-apples); Version lets callers
// invalidate entries when the underlying table loads new data.
type Cache struct {
	budget int64
	used   int64
	ll     *list.List // front = most recent
	items  map[entryKey]*list.Element
	stats  Stats
}

type entryKey struct {
	key     pathkey.Key
	version int64
}

type entry struct {
	k    entryKey
	size int64
}

// New builds a cache with the given byte budget.
func New(budgetBytes int64) *Cache {
	return &Cache{
		budget: budgetBytes,
		ll:     list.New(),
		items:  make(map[entryKey]*list.Element),
	}
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (contents stay).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access looks up (key, version). On a hit the entry is refreshed and true
// is returned. On a miss the value is inserted with the given size —
// modelling the online policy where a missed value is parsed and then
// cached — evicting LRU entries as needed. Values larger than the whole
// budget are not cached.
func (c *Cache) Access(key pathkey.Key, version int64, size int64) (hit bool) {
	ek := entryKey{key, version}
	if el, ok := c.items[ek]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	if size > c.budget {
		return false
	}
	for c.used+size > c.budget {
		c.evictOldest()
	}
	el := c.ll.PushFront(&entry{k: ek, size: size})
	c.items[ek] = el
	c.used += size
	c.stats.Inserted++
	return false
}

// Instrument registers gauge functions for this cache on the registry,
// labelled cache=<name> so several LRU instances can share one registry.
// The gauges read live state at snapshot time; the Cache itself is not
// goroutine-safe, so snapshots should be taken from the owning goroutine.
func (c *Cache) Instrument(r *obs.Registry, name string) {
	if r == nil {
		return
	}
	l := obs.L{K: "cache", V: name}
	r.GaugeFunc("lru_used_bytes", func() int64 { return c.used }, l)
	r.GaugeFunc("lru_budget_bytes", func() int64 { return c.budget }, l)
	r.GaugeFunc("lru_entry_count", func() int64 { return int64(c.ll.Len()) }, l)
	r.GaugeFunc("lru_hits_total", func() int64 { return c.stats.Hits }, l)
	r.GaugeFunc("lru_misses_total", func() int64 { return c.stats.Misses }, l)
	r.GaugeFunc("lru_evictions_total", func() int64 { return c.stats.Evictions }, l)
	r.GaugeFunc("lru_inserted_total", func() int64 { return c.stats.Inserted }, l)
}

// Contains reports whether (key, version) is cached, without touching
// recency or stats.
func (c *Cache) Contains(key pathkey.Key, version int64) bool {
	_, ok := c.items[entryKey{key, version}]
	return ok
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.ll.Len() }

func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.removeElement(el)
	c.stats.Evictions++
}

func (c *Cache) removeElement(el *list.Element) {
	ent := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, ent.k)
	c.used -= ent.size
}
