package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/pathkey"
)

// CacheEntry records one cached JSONPath: where its values live and when
// they were populated. Validity is re-checked against the raw table's
// modification time at plan time (paper Algorithm 1 lines 15-20).
type CacheEntry struct {
	Key pathkey.Key
	// CacheDB/CacheTable name the cache table (db__table under the cache
	// database); CacheColumn is the Sanitized() field name.
	CacheDB     string
	CacheTable  string
	CacheColumn string
	CachedAt    time.Time
	// Bytes is the measured cache footprint of this path's values.
	Bytes int64
	// Invalid marks an entry whose raw table changed after caching; it is
	// skipped by lookups and deleted on the next caching cycle.
	Invalid bool
}

// Registry is the in-memory catalog of cache entries, shared between the
// Cacher (writer) and the MaxsonParser (reader). Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[pathkey.Key]*CacheEntry
	// quarantined names cache tables (db.table) that failed to open or
	// decode this generation: the planner skips their entries so queries
	// transparently re-route to the raw-parse path until the next
	// population cycle replaces the table and clears the set.
	quarantined map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries:     make(map[pathkey.Key]*CacheEntry),
		quarantined: make(map[string]bool),
	}
}

// Put installs or replaces an entry.
func (r *Registry) Put(e *CacheEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := *e
	r.entries[e.Key] = &cp
}

// Lookup returns the entry for a key, or nil. Invalid entries are returned
// too (the caller decides; the plan modifier checks Invalid itself).
func (r *Registry) Lookup(key pathkey.Key) *CacheEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[key]
	if !ok {
		return nil
	}
	cp := *e
	return &cp
}

// MarkInvalid flags an entry as stale (Algorithm 1 line 19). It reports
// whether the entry existed.
func (r *Registry) MarkInvalid(key pathkey.Key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if ok {
		e.Invalid = true
	}
	return ok
}

// Entries lists all entries in deterministic order.
func (r *Registry) Entries() []*CacheEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*CacheEntry, 0, len(r.entries))
	for _, e := range r.entries {
		cp := *e
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return pathkey.Less(out[i].Key, out[j].Key) })
	return out
}

// Len returns the number of entries (valid and invalid).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Swap atomically replaces the whole entry set with entries and returns the
// previous entries. Readers observe either the old generation or the new
// one, never a half-built mix — the midnight cycle's build-then-swap commit.
func (r *Registry) Swap(entries []*CacheEntry) []*CacheEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := make([]*CacheEntry, 0, len(r.entries))
	for _, e := range r.entries {
		cp := *e
		old = append(old, &cp)
	}
	sort.Slice(old, func(i, j int) bool { return pathkey.Less(old[i].Key, old[j].Key) })
	r.entries = make(map[pathkey.Key]*CacheEntry, len(entries))
	for _, e := range entries {
		cp := *e
		r.entries[e.Key] = &cp
	}
	return old
}

func quarantineKey(db, table string) string { return db + "." + table }

// Quarantine marks a cache table as unusable for the rest of the generation
// and reports whether it was newly quarantined.
func (r *Registry) Quarantine(db, table string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := quarantineKey(db, table)
	if r.quarantined[k] {
		return false
	}
	r.quarantined[k] = true
	return true
}

// IsQuarantined reports whether a cache table is quarantined.
func (r *Registry) IsQuarantined(db, table string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.quarantined[quarantineKey(db, table)]
}

// ClearQuarantine empties the quarantine set (a new generation swapped in).
func (r *Registry) ClearQuarantine() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quarantined = make(map[string]bool)
}

// QuarantineCount returns how many cache tables are quarantined.
func (r *Registry) QuarantineCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.quarantined)
}

// TotalBytes sums the footprint of valid entries.
func (r *Registry) TotalBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, e := range r.entries {
		if !e.Invalid {
			n += e.Bytes
		}
	}
	return n
}
