package sqlengine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics accumulates all metered work for one query execution. Fields
// updated from parallel partitions use atomics. They are counts, never
// modelled times: the paper's figures turn them into simulated time in
// internal/experiments.
type Metrics struct {
	// Read phase.
	BytesRead        atomic.Int64
	RowsScanned      atomic.Int64
	RowGroupsRead    atomic.Int64
	RowGroupsSkipped atomic.Int64

	// Parse phase.
	Parse ParseMeter

	// Compute phase: one row-op is one operator processing one row.
	RowOps atomic.Int64

	// Sparser-style prefilter work.
	PrefilterBytes   atomic.Int64
	PrefilterSkipped atomic.Int64

	// Cache interaction (filled in by Maxson's combined scan).
	CacheValuesRead atomic.Int64
	CacheHits       atomic.Int64
	CacheMisses     atomic.Int64

	// Wall clock, set by the executor.
	WallTime time.Duration
	PlanWall time.Duration

	// PlanExprNodes counts expression nodes visited during planning (for
	// the Fig 13 plan-generation-time comparison).
	PlanExprNodes int64

	// QueryID is the flight-recorder query ID (0 when no recorder is
	// active), set by the engine from the query context so scan-layer
	// metrics correlate back to one recorded query.
	QueryID uint64

	// Batches counts scan batches pulled through the vectorized pipeline.
	Batches atomic.Int64

	// scanModes accumulates ScanMode bits from every split's row source, so
	// a finished query can report how its data was actually served (raw
	// parse, combined cache scan, per-split fallback, ...).
	scanModes atomic.Uint32

	// Trace is the root span of the query's trace tree (nil when tracing is
	// off). Span is the span covering this Metrics' scope: the executor
	// gives each scan partition its own Metrics whose Span is that split's
	// span, so row sources can annotate the split they serve (the Value
	// Combiner records combined/fallback mode here) without extra plumbing.
	Trace *obs.Span
	Span  *obs.Span
}

// ScanMode bits mark how splits were served. A query's Metrics ORs together
// the bits of every split, so mixed plans (cached splits plus fresh raw
// appends) surface as multiple bits.
const (
	ScanRaw                 uint32 = 1 << iota // plain raw-table scan
	ScanCacheOnly                              // cache-table-only read (fully cached projection)
	ScanCombined                               // combined raw+cache stitched scan
	ScanCombinedPushdown                       // combined scan with shared row-group mask
	ScanFallbackUncovered                      // fallback parse: split postdates the cache
	ScanFallbackRetired                        // fallback parse: cache generation retired
	ScanFallbackQuarantined                    // fallback parse: cache table quarantined
	ScanShared                                 // served by a shared-scan producer (scanshare demux)
)

// MarkScanMode ORs one ScanMode bit into the metrics (lock-free; called by
// row-source Open paths that may run concurrently per split).
func (m *Metrics) MarkScanMode(bit uint32) {
	for {
		old := m.scanModes.Load()
		if old&bit == bit || m.scanModes.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// ScanModes returns the accumulated ScanMode bits.
func (m *Metrics) ScanModes() uint32 { return m.scanModes.Load() }

// PlanModeString folds the scan-mode bits into the flight recorder's plan
// mode vocabulary: "shared" (rows arrived through a shared-scan demux),
// "cached" (cache-only reads), "combined" (stitched raw+cache),
// "fallback-raw" (cache planned but some split parsed raw), "raw" (no cache
// involvement), or "none" (no scan ran, e.g. EXPLAIN).
func (m *Metrics) PlanModeString() string {
	bits := m.scanModes.Load()
	fallback := bits&(ScanFallbackUncovered|ScanFallbackRetired|ScanFallbackQuarantined) != 0
	switch {
	case bits == 0:
		return "none"
	case bits&ScanShared != 0:
		return "shared"
	case fallback:
		return "fallback-raw"
	case bits&(ScanCombined|ScanCombinedPushdown) != 0:
		return "combined"
	case bits&ScanCacheOnly != 0 && bits&ScanRaw == 0:
		return "cached"
	default:
		return "raw"
	}
}

// addTo merges this Metrics' counters into dst. The executor uses it to
// fold per-partition metrics into the query totals; wall/plan fields and
// trace pointers belong to the root Metrics and are not merged.
func (m *Metrics) addTo(dst *Metrics) {
	dst.BytesRead.Add(m.BytesRead.Load())
	dst.RowsScanned.Add(m.RowsScanned.Load())
	dst.RowGroupsRead.Add(m.RowGroupsRead.Load())
	dst.RowGroupsSkipped.Add(m.RowGroupsSkipped.Load())
	dst.Parse.Docs.Add(m.Parse.Docs.Load())
	dst.Parse.Bytes.Add(m.Parse.Bytes.Load())
	dst.Parse.Skipped.Add(m.Parse.Skipped.Load())
	dst.Parse.Calls.Add(m.Parse.Calls.Load())
	dst.RowOps.Add(m.RowOps.Load())
	dst.PrefilterBytes.Add(m.PrefilterBytes.Load())
	dst.PrefilterSkipped.Add(m.PrefilterSkipped.Load())
	dst.CacheValuesRead.Add(m.CacheValuesRead.Load())
	dst.CacheHits.Add(m.CacheHits.Load())
	dst.CacheMisses.Add(m.CacheMisses.Load())
	dst.Batches.Add(m.Batches.Load())
	if bits := m.scanModes.Load(); bits != 0 {
		dst.MarkScanMode(bits)
	}
}

// MergeInto folds this Metrics' counters into dst. Exported for shared-scan
// producers: the producer meters the single underlying pass into its own
// Metrics, and exactly one consumer query folds that work into its totals so
// engine-lifetime counters see the scan once, not once per participant.
func (m *Metrics) MergeInto(dst *Metrics) { m.addTo(dst) }

// String renders the counters as one human-readable line — the single
// rendering path shared by cmd/maxson-sql and EXPLAIN ANALYZE.
func (m *Metrics) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("read %dB in %d rows (%d row-groups, %d skipped)",
		m.BytesRead.Load(), m.RowsScanned.Load(), m.RowGroupsRead.Load(), m.RowGroupsSkipped.Load()))
	pc := m.Parse.Snapshot()
	if pc.Skipped > 0 {
		parts = append(parts, fmt.Sprintf("parsed %d docs / %dB / %d calls (%dB skipped)",
			pc.Docs, pc.Bytes, pc.Calls, pc.Skipped))
	} else {
		parts = append(parts, fmt.Sprintf("parsed %d docs / %dB / %d calls", pc.Docs, pc.Bytes, pc.Calls))
	}
	parts = append(parts, fmt.Sprintf("%d row-ops", m.RowOps.Load()))
	if n := m.CacheValuesRead.Load(); n > 0 || m.CacheMisses.Load() > 0 {
		parts = append(parts, fmt.Sprintf("cache %d values (%d misses)", n, m.CacheMisses.Load()))
	}
	if n := m.PrefilterSkipped.Load(); n > 0 {
		parts = append(parts, fmt.Sprintf("prefilter skipped %d", n))
	}
	return strings.Join(parts, "; ")
}
