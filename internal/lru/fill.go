package lru

import (
	"repro/internal/jsonpath"
	"repro/internal/obs"
	"repro/internal/pathkey"
)

// Circuit-breaker defaults: DefaultFailThreshold consecutive fill failures
// open the breaker; it stays open for DefaultCooldownMisses misses before a
// half-open probe fill is allowed.
const (
	DefaultFailThreshold  = 5
	DefaultCooldownMisses = 32
)

// FillStats counts the parsing work the online cache's fill path performed.
type FillStats struct {
	Fills        int64 // documents the fill path had to read
	BytesScanned int64 // bytes the extractor actually consumed
	BytesSkipped int64 // bytes skipped by trie descent / early exit
	ParseErrors  int64 // malformed documents (filled as empty values)
}

// Filler is the online cache's fill path: a miss extracts the missed path's
// value from the raw document with the single-pass streaming extractor
// (skipped bytes are never tokenized into values) before inserting it.
// A Filler owns its extractors and is not goroutine-safe, like the Cache.
type Filler struct {
	C *Cache

	// FailThreshold consecutive fill failures trip the circuit breaker
	// (default DefaultFailThreshold); CooldownMisses is how many misses the
	// breaker stays open before a half-open probe (default
	// DefaultCooldownMisses). While open, misses still serve their value via
	// raw parse but nothing is inserted — a stream of unparseable documents
	// stops churning good entries out of the cache.
	FailThreshold  int
	CooldownMisses int

	stats      FillStats
	extractors map[string]*jsonpath.Extractor // keyed by canonical path

	consecFails int
	open        bool
	cooldown    int   // remaining misses while open
	trips       int64 // times the breaker opened
}

// NewFiller wraps an existing cache with the streaming fill path.
func NewFiller(c *Cache) *Filler { return &Filler{C: c} }

// FillStats returns a copy of the fill counters.
func (f *Filler) FillStats() FillStats { return f.stats }

// BreakerOpen reports whether the fill circuit breaker is currently open.
func (f *Filler) BreakerOpen() bool { return f.open }

// BreakerTrips returns how many times the breaker has opened.
func (f *Filler) BreakerTrips() int64 { return f.trips }

// Instrument registers the breaker's state on the registry, labelled
// cache=<name> like Cache.Instrument. Same caveat: the Filler is not
// goroutine-safe, so snapshots belong to the owning goroutine.
func (f *Filler) Instrument(r *obs.Registry, name string) {
	if r == nil {
		return
	}
	l := obs.L{K: "cache", V: name}
	r.GaugeFunc("lru_fill_breaker_open_count", func() int64 {
		if f.open {
			return 1
		}
		return 0
	}, l)
	r.GaugeFunc("lru_fill_breaker_trips_total", func() int64 { return f.trips }, l)
}

// noteFill advances the breaker state machine after one miss-fill and
// reports whether the extracted value may be inserted into the cache.
func (f *Filler) noteFill(failed bool) (insert bool) {
	threshold := f.FailThreshold
	if threshold <= 0 {
		threshold = DefaultFailThreshold
	}
	cooldown := f.CooldownMisses
	if cooldown <= 0 {
		cooldown = DefaultCooldownMisses
	}
	if f.open {
		if f.cooldown > 0 {
			f.cooldown--
			return false
		}
		// Half-open: this fill was the probe.
		if failed {
			f.cooldown = cooldown
			return false
		}
		f.open = false
		f.consecFails = 0
		return true
	}
	if !failed {
		f.consecFails = 0
		return true
	}
	f.consecFails++
	if f.consecFails >= threshold {
		f.open = true
		f.cooldown = cooldown
		f.trips++
	}
	return !f.open
}

// Access looks up (key, version); a hit refreshes recency and returns the
// cached value. A miss extracts the value from doc, inserts it sized by the
// rendered scalar (plus the null marker byte, matching the scorer's B_j
// accounting), and returns it with hit=false.
func (f *Filler) Access(key pathkey.Key, version int64, path *jsonpath.Path, doc string) (value string, hit bool) {
	ek := entryKey{key, version}
	if el, ok := f.C.items[ek]; ok {
		f.C.ll.MoveToFront(el)
		f.C.stats.Hits++
		return el.Value.(*entry).val, true
	}
	errsBefore := f.stats.ParseErrors
	value = f.extract(path, doc)
	f.C.stats.Misses++
	if !f.noteFill(f.stats.ParseErrors > errsBefore) {
		return value, false // breaker open: serve the parse, skip the insert
	}
	size := int64(len(value)) + 1
	if size > f.C.budget {
		return value, false
	}
	for f.C.used+size > f.C.budget {
		f.C.evictOldest()
	}
	el := f.C.ll.PushFront(&entry{k: ek, size: size, val: value})
	f.C.items[ek] = el
	f.C.used += size
	f.C.stats.Inserted++
	return value, false
}

// extract reads one value out of doc.
func (f *Filler) extract(path *jsonpath.Path, doc string) string {
	canon := path.Canonical()
	x := f.extractors[canon]
	if x == nil {
		if f.extractors == nil {
			f.extractors = map[string]*jsonpath.Extractor{}
		}
		x = jsonpath.NewExtractor(jsonpath.MustPathSet(path))
		f.extractors[canon] = x
	}
	f.stats.Fills++
	scanned := x.Extract(doc)
	f.stats.BytesScanned += int64(scanned)
	f.stats.BytesSkipped += int64(len(doc) - scanned)
	if x.Err() != nil {
		f.stats.ParseErrors++
	}
	value, _ := x.Scalar(0)
	return value
}
