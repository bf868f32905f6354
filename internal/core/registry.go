package core

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/pathkey"
	"repro/internal/warehouse"
)

// Manifest is the one record of what a cache table holds: for each split,
// the raw part and the dfs version its values were extracted from, and the
// cache part that holds them. It decides cache validity alone. A cached
// split is served while its raw part is still at the version the manifest
// names, and carried into the next generation on the same condition; no
// timestamp is compared anywhere ("Metadata Caching in Presto": a hit only on
// an exact version match). A manifest is immutable once the cacher builds it
// and is shared by the registry, every plan built against it, and the state
// file SaveState writes.
type Manifest struct {
	CacheTable string        `json:"cache_table"` // within CacheDB
	Keys       []pathkey.Key `json:"keys"`        // the cached paths, in cache-column order
	// Splits are in the raw table's split order at populate time, so sorted
	// by RawPath.
	Splits []ManifestSplit `json:"splits"`
}

// ManifestSplit is one cache part's record.
type ManifestSplit struct {
	RawPath string `json:"raw_path"`
	// RawVersion is the dfs version of the raw bytes the values came from,
	// and 0 — which matches no version — when the read that fed them was not
	// the stored content (dfs.View.Stored false).
	RawVersion   uint64  `json:"raw_version"`
	CachePath    string  `json:"cache_path"`
	CacheVersion uint64  `json:"cache_version"` // the dfs version the cache part was stored under
	Rows         int64   `json:"rows"`
	ColBytes     []int64 `json:"col_bytes"` // value bytes per column, summed into CacheEntry.Bytes
}

// split returns the record of raw part name at version, nil when the
// manifest holds none (a part rewritten or recreated since, one appended
// without being ingested, or one whose values came from a corrupted read).
func (m *Manifest) split(name string, version uint64) *ManifestSplit {
	i := sort.Search(len(m.Splits), func(i int) bool { return m.Splits[i].RawPath >= name })
	if i < len(m.Splits) && m.Splits[i].RawPath == name && m.Splits[i].RawVersion == version {
		return &m.Splits[i]
	}
	return nil
}

// follows reports whether raw part name sorts after every split m files: a
// part appended since m was built. A recreated table reuses part names.
func (m *Manifest) follows(name string) bool {
	n := len(m.Splits)
	return n == 0 || m.Splits[n-1].RawPath < name
}

// withSplit returns a copy of m that also files sp, a split that follows it.
func (m *Manifest) withSplit(sp ManifestSplit) *Manifest {
	next := *m
	next.Splits = append(slices.Clip(m.Splits), sp)
	return &next
}

// Covered returns how many of info's part files the manifest serves: those
// still at the version their cache part was extracted from.
func (m *Manifest) Covered(info *warehouse.TableInfo) int {
	n := 0
	for i, name := range info.Files {
		if m.split(name, info.Versions[i]) != nil {
			n++
		}
	}
	return n
}

// CacheEntry is one cached JSONPath as the planner looks it up: a column of
// a manifest's cache table. Entries are derived from their manifest when the
// registry installs it and are never modified, so they are shared, not
// copied.
type CacheEntry struct {
	Key pathkey.Key
	// CacheDB/CacheTable name the cache table (db__table under the cache
	// database); CacheColumn is the Sanitized() field name.
	CacheDB     string
	CacheTable  string
	CacheColumn string
	// Bytes is the measured cache footprint of this path's values.
	Bytes int64
	// Manifest is the record the entry was derived from; it decides which
	// splits the entry serves.
	Manifest *Manifest
	// Invalid is set by nothing: validity is per split, by version, in the
	// manifest. It stays declared because bench/e2e still reads it.
	Invalid bool
}

// Registry is the in-memory catalog of the active generation's manifests and
// the entries derived from them, shared between the Cacher (writer) and the
// MaxsonParser (reader). Safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	// manifests maps a raw table ("db.table") to its cache table's manifest.
	// Swap and Replace replace the map whole, so a map handed out is never
	// written.
	manifests map[string]*Manifest
	entries   map[pathkey.Key]*CacheEntry
	// quarantined counts the cache tables Quarantine unserved since the last
	// Swap.
	quarantined int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		manifests: make(map[string]*Manifest),
		entries:   make(map[pathkey.Key]*CacheEntry),
	}
}

// Lookup returns the entry for a key, or nil.
func (r *Registry) Lookup(key pathkey.Key) *CacheEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[key]
}

// Entries lists all entries in deterministic order.
func (r *Registry) Entries() []*CacheEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*CacheEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return pathkey.Less(out[i].Key, out[j].Key) })
	return out
}

// Len returns the number of entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Swap atomically replaces the whole generation with manifests, which lifts
// every quarantine. Readers observe either the old generation or the new one,
// never a half-built mix — the midnight cycle's build-then-swap commit.
func (r *Registry) Swap(manifests []*Manifest) {
	byTable := make(map[string]*Manifest, len(manifests))
	entries := make(map[pathkey.Key]*CacheEntry)
	for _, m := range manifests {
		byTable[m.Keys[0].TableID()] = m
		deriveEntries(entries, m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.manifests, r.entries, r.quarantined = byTable, entries, 0
}

// Replace installs next for its raw table in place of old, compare-and-swap:
// only while old is still the manifest serving that table, which it reports.
// A Swap or another Replace since old was read makes it do nothing. The other
// tables' manifests and entries stay as they are.
func (r *Registry) Replace(old, next *Manifest) bool {
	id := next.Keys[0].TableID()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.manifests[id] != old {
		return false
	}
	byTable, entries := maps.Clone(r.manifests), maps.Clone(r.entries)
	byTable[id] = next
	deriveEntries(entries, next)
	r.manifests, r.entries = byTable, entries
	return true
}

// deriveEntries files an entry for each of m's keys.
func deriveEntries(entries map[pathkey.Key]*CacheEntry, m *Manifest) {
	for j, key := range m.Keys {
		e := &CacheEntry{Key: key, CacheDB: CacheDB, CacheTable: m.CacheTable, CacheColumn: key.Sanitized(), Manifest: m}
		for _, sp := range m.Splits {
			e.Bytes += sp.ColBytes[j]
		}
		entries[key] = e
	}
}

// sortedManifests lists a generation's manifests by cache table.
func sortedManifests(byTable map[string]*Manifest) []*Manifest {
	out := make([]*Manifest, 0, len(byTable))
	for _, m := range byTable {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CacheTable < out[j].CacheTable })
	return out
}

// generation returns the active generation's manifests by raw table. The map
// is never written after Swap installs it.
func (r *Registry) generation() map[string]*Manifest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.manifests
}

// Quarantine unserves the manifest of cache table cacheTable, which failed to
// open or decode, with its entries: the planner, ingest and the next populate
// then see its raw table uncached, and the next DropRetired deletes the table.
// It matches by name, so a manifest ingest extended is unserved too, and it
// reports whether the table was serving.
func (r *Registry) Quarantine(cacheTable string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, m := range r.manifests {
		if m.CacheTable != cacheTable {
			continue
		}
		byTable, entries := maps.Clone(r.manifests), maps.Clone(r.entries)
		delete(byTable, id)
		for _, key := range m.Keys {
			delete(entries, key)
		}
		r.manifests, r.entries = byTable, entries
		r.quarantined++
		return true
	}
	return false
}

// QuarantineCount returns how many cache tables were quarantined since the
// last Swap.
func (r *Registry) QuarantineCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.quarantined
}

// TotalBytes sums the footprint of the entries.
func (r *Registry) TotalBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, e := range r.entries {
		n += e.Bytes
	}
	return n
}
