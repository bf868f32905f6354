package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/sqlengine"
	"repro/internal/warehouse"
)

// ErrCacheDegraded marks a query failure caused by the cache layer, not the
// data: the cache table involved has been quarantined, so re-planning the
// same query routes it to the raw-parse path and succeeds. Maxson.QueryCtx
// does exactly that — the cache stays transparent even when its files rot.
var ErrCacheDegraded = errors.New("core: cache degraded")

// combinerObs holds the Value Combiner's registry instruments: one open
// counter per mode plus row-level hit/miss totals. The Planner resolves them
// once and every factory it builds shares them, so planning and scanning
// touch the registry not at all; increments are lock-free atomic adds.
type combinerObs struct {
	opensCombined  *obs.Counter
	opensPushdown  *obs.Counter
	rowsStitched   *obs.Counter
	fallbackValues *obs.Counter

	// The fallback modes: a retired cache generation, a split the manifest
	// does not serve at its current version, a quarantined cache table.
	retired, uncovered, quarantined fallbackMode
}

// fallbackMode is one reason a split the plan meant to read from the cache
// parses the raw JSON instead: the scan-mode bit it marks, its
// combiner_opens_total series and the label its split span records.
type fallbackMode struct {
	bit   uint32
	opens *obs.Counter
	label string
}

func newCombinerObs(r *obs.Registry) *combinerObs {
	mode := func(bit uint32, label string) fallbackMode {
		return fallbackMode{bit: bit, opens: r.Counter("combiner_opens_total", obs.L{K: "mode", V: label}), label: label}
	}
	return &combinerObs{
		opensCombined:  r.Counter("combiner_opens_total", obs.L{K: "mode", V: "combined"}),
		opensPushdown:  r.Counter("combiner_opens_total", obs.L{K: "mode", V: "combined-pushdown"}),
		retired:        mode(sqlengine.ScanFallbackRetired, "fallback-retired"),
		uncovered:      mode(sqlengine.ScanFallbackUncovered, "fallback-uncovered"),
		quarantined:    mode(sqlengine.ScanFallbackQuarantined, "fallback-quarantined"),
		rowsStitched:   r.Counter("combiner_rows_stitched_total"),
		fallbackValues: r.Counter("combiner_fallback_values_total"),
	}
}

// CombinedScanFactory is the Value Combiner (paper §IV-E): it opens two
// synchronized readers per split — the PrimaryReader over the raw table's
// uncached columns and the CacheReader over the cache table's columns — and
// stitches their rows positionally into complete records. A split is served
// from the cache only while its raw part is at the dfs version the manifest
// filed its cache part under; every other split parses the raw JSON. When the query
// carries a predicate on a cached path, the CacheReader evaluates the SARG
// against the cache table's row-group statistics and shares the resulting
// skip array with the PrimaryReader (paper §IV-F), provided both files have
// a single stripe.
type CombinedScanFactory struct {
	wh *warehouse.Warehouse

	// Raw side.
	rawDB, rawTable string
	primaryCols     []string // raw columns the query still needs
	primarySARG     *orc.SARG

	// Cache side.
	manifest  *Manifest
	cacheCols []string // cache table columns (sanitized names)
	cacheSARG *orc.SARG

	// fallbacks compute each cache column's value by parsing the raw JSON
	// for a split the manifest does not serve (daily appends land new part
	// files the nightly cache does not cover yet). Aligned with cacheCols.
	fallbacks []sqlengine.Extraction

	// Pushdown enables sharing the cache reader's row-group mask with the
	// primary reader.
	pushdown bool

	schema sqlengine.RowSchema

	// registry, when set, receives quarantine marks for cache tables that
	// fail to open or decode, so the planner stops routing to them for the
	// rest of the generation.
	registry *Registry

	// obsc publishes open-mode and hit/miss counters.
	obsc *combinerObs

	// fallback reads the splits the cache does not serve: the engine's split
	// reader over the primary columns with the fallbacks as its Extract list,
	// built when the first such split opens.
	fallbackOnce sync.Once
	fallback     *sqlengine.SplitReader
}

// NewCombinedScanFactory wires a combined scan over the cache table manifest
// describes. primaryCols may be empty
// (fully cached query → cache-only reading, the cheaper mode the paper's
// relevance term optimizes for); cacheCols may be empty only if pushdown is
// disabled and the factory degenerates to a plain scan. fallbacks extract
// the cache columns, in order, from the raw JSON. obsc is the Planner's set
// of counter handles; a factory built without a planner (a test, an
// experiment) passes nil and counts into a registry of its own.
func NewCombinedScanFactory(
	wh *warehouse.Warehouse,
	rawDB, rawTable string,
	primaryCols []string, primarySARG *orc.SARG,
	manifest *Manifest, cacheCols []string, cacheSARG *orc.SARG,
	fallbacks []sqlengine.Extraction,
	pushdown bool,
	schema sqlengine.RowSchema,
	obsc *combinerObs,
) *CombinedScanFactory {
	if obsc == nil {
		obsc = newCombinerObs(obs.NewRegistry())
	}
	return &CombinedScanFactory{
		wh:    wh,
		rawDB: rawDB, rawTable: rawTable,
		primaryCols: primaryCols, primarySARG: primarySARG,
		manifest: manifest, cacheCols: cacheCols, cacheSARG: cacheSARG,
		fallbacks: fallbacks,
		pushdown:  pushdown,
		schema:    schema,
		obsc:      obsc,
	}
}

// ScanFingerprint implements scanshare.Fingerprinter: two combined scans
// with equal fingerprints read identical rows, so the shared-scan scheduler
// may serve both from one pass (broadcast mode). Everything that shapes the
// output rows participates: raw table and projected columns, row-group
// predicates on both sides, the cache table (whose name carries the
// generation), its column list, fallback specs, and the pushdown mode.
func (f *CombinedScanFactory) ScanFingerprint() string {
	var b strings.Builder
	b.WriteString("combined\x00")
	b.WriteString(f.rawDB)
	b.WriteByte(0)
	b.WriteString(f.rawTable)
	b.WriteByte(0)
	b.WriteString(strings.Join(f.primaryCols, ","))
	b.WriteByte(0)
	if f.primarySARG != nil {
		b.WriteString(f.primarySARG.String())
	}
	b.WriteByte(0)
	b.WriteString(f.manifest.CacheTable)
	b.WriteByte(0)
	b.WriteString(strings.Join(f.cacheCols, ","))
	b.WriteByte(0)
	if f.cacheSARG != nil {
		b.WriteString(f.cacheSARG.String())
	}
	b.WriteByte(0)
	for _, fb := range f.fallbacks {
		b.WriteString(fb.Column)
		b.WriteByte('=')
		b.WriteString(fb.Path.Canonical())
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "\x00%t", f.pushdown)
	return b.String()
}

// SetRegistry attaches the cache registry so the factory can quarantine a
// cache table it finds broken.
func (f *CombinedScanFactory) SetRegistry(r *Registry) { f.registry = r }

// quarantineCache marks this factory's cache table unusable for the rest of
// the generation.
func (f *CombinedScanFactory) quarantineCache() {
	if f.registry != nil {
		f.registry.Quarantine(CacheDB, f.manifest.CacheTable)
	}
}

// degrade quarantines the cache table and wraps err in ErrCacheDegraded so
// callers (Maxson.QueryCtx) know a re-plan will succeed on the raw path.
func (f *CombinedScanFactory) degrade(err error) error {
	f.quarantineCache()
	return fmt.Errorf("%w: table %s/%s: %v", ErrCacheDegraded, CacheDB, f.manifest.CacheTable, err)
}

// NumSplits implements sqlengine.ScanSourceFactory. Splits follow the raw
// table's part files.
func (f *CombinedScanFactory) NumSplits() (int, error) {
	info, err := f.wh.Table(f.rawDB, f.rawTable)
	if err != nil {
		return 0, err
	}
	return len(info.Files), nil
}

// Schema implements sqlengine.ScanSourceFactory.
func (f *CombinedScanFactory) Schema() (sqlengine.RowSchema, error) { return f.schema, nil }

// Open implements sqlengine.ScanSourceFactory.
func (f *CombinedScanFactory) Open(split int, m *sqlengine.Metrics) (sqlengine.BatchSource, error) {
	rawInfo, err := f.wh.Table(f.rawDB, f.rawTable)
	if err != nil {
		return nil, err
	}
	if split < 0 || split >= len(rawInfo.Files) {
		return nil, fmt.Errorf("core: split %d out of range for %s.%s", split, f.rawDB, f.rawTable)
	}
	raw := rawInfo.Files[split]
	// A part the manifest holds no record of at its current version —
	// appended after the nightly population, rewritten, from a recreated
	// table, or cached from a corrupted read — reads raw data and parses the
	// paths on the fly.
	sp := f.manifest.split(raw, rawInfo.Versions[split])
	if sp == nil {
		return f.openFallback(raw, m, &f.obsc.uncovered)
	}

	// CacheReader. Open or cursor failures degrade to raw parsing rather
	// than failing the query: a rotten cache file must stay invisible to the
	// user (the paper's transparency property). The table is quarantined so
	// later plans skip it entirely.
	cacheReader, view, err := f.wh.OpenFileView(sp.CachePath)
	if errors.Is(err, dfs.ErrNotFound) {
		// The cache generation this plan was built against has been retired
		// and deleted by a later population cycle. Degrade gracefully: the
		// query stays correct by parsing raw data, exactly as if the paths
		// were uncached.
		return f.openFallback(raw, m, &f.obsc.retired)
	}
	if err != nil || !view.Stored || view.Version != sp.CacheVersion || cacheReader.NumRows() != sp.Rows {
		f.quarantineCache()
		return f.openFallback(raw, m, &f.obsc.quarantined)
	}
	src := &combinedRowSource{m: m, nPrimary: len(f.primaryCols), nCache: len(f.cacheCols), degrade: f.degrade}
	cacheCur, err := cacheReader.NewCursor(f.cacheCols, f.cacheSARG, &src.cacheMeter.Stats)
	if err != nil {
		f.quarantineCache()
		return f.openFallback(raw, m, &f.obsc.quarantined)
	}
	src.cacheCur = cacheCur

	// PrimaryReader (absent when every projected column is cached).
	if len(f.primaryCols) > 0 {
		rawReader, rawView, err := f.wh.OpenFileView(raw)
		if err != nil {
			return nil, err
		}
		if rawView.Version != sp.RawVersion {
			// Rewritten since the listing: the cache part no longer
			// describes what this reader would stitch it to.
			return f.openFallback(raw, m, &f.obsc.uncovered)
		}
		rawCur, err := rawReader.NewCursor(f.primaryCols, f.primarySARG, &src.rawMeter.Stats)
		if err != nil {
			return nil, err
		}
		// Row alignment sanity (the §IV-C invariant). Both parts are at the
		// versions the manifest records, so a mismatch means a read was
		// mangled: degrade.
		if rawReader.NumRows() != cacheReader.NumRows() {
			f.quarantineCache()
			return f.openFallback(raw, m, &f.obsc.quarantined)
		}
		// Predicate pushdown: share the cache reader's skip array. Only
		// valid when both files are single-stripe so row groups align
		// (paper §IV-F) and the group counts agree.
		if f.pushdown && f.cacheSARG != nil &&
			rawReader.NumStripes() <= 1 && cacheReader.NumStripes() <= 1 &&
			rawReader.NumRowGroups() == cacheReader.NumRowGroups() {
			if err := rawCur.SetRowGroupMask(cacheCur.RowGroupMask()); err != nil {
				return nil, err
			}
			src.sharedMask = true
		}
		// The cache side must also honor the primary reader's own skips so
		// both cursors keep visiting the same groups.
		if src.sharedMask || (rawCur != nil && f.primarySARG != nil &&
			rawReader.NumStripes() <= 1 && cacheReader.NumStripes() <= 1 &&
			rawReader.NumRowGroups() == cacheReader.NumRowGroups()) {
			if err := cacheCur.SetRowGroupMask(rawCur.RowGroupMask()); err != nil {
				return nil, err
			}
		}
		src.rawCur = rawCur
	}
	if m != nil {
		switch {
		case src.sharedMask:
			m.MarkScanMode(sqlengine.ScanCombinedPushdown)
		case len(f.primaryCols) == 0:
			m.MarkScanMode(sqlengine.ScanCacheOnly)
		default:
			m.MarkScanMode(sqlengine.ScanCombined)
		}
		if m.Span != nil {
			m.Span.Set("source", "combined")
			if src.sharedMask {
				m.Span.Set("pushdown", "shared-mask")
			}
		}
	}
	if src.sharedMask {
		f.obsc.opensPushdown.Inc()
	} else {
		f.obsc.opensCombined.Inc()
	}
	src.obsc = f.obsc
	return src, nil
}

// openFallback serves one split the cache does not: the engine's split
// reader decodes the primary columns and extracts the cache columns from the
// raw JSON — the cost a freshly appended file pays until the next midnight
// cycle covers it. mode says why: an uncovered split, a retired cache
// generation or a quarantined one.
func (f *CombinedScanFactory) openFallback(file string, m *sqlengine.Metrics, mode *fallbackMode) (sqlengine.BatchSource, error) {
	if m != nil {
		m.MarkScanMode(mode.bit)
		if m.Span != nil {
			m.Span.Set("source", mode.label)
		}
	}
	mode.opens.Inc()
	f.fallbackOnce.Do(func() {
		f.fallback = sqlengine.NewSplitReader(f.wh, &sqlengine.ScanNode{
			DB: f.rawDB, Table: f.rawTable, Columns: f.primaryCols, SARG: f.primarySARG, Extract: f.fallbacks,
		})
	})
	src, err := f.fallback.OpenPart(file, m)
	if err != nil {
		return nil, err
	}
	return &cacheMisses{BatchSource: src, m: m, f: f}, nil
}

// cacheMisses counts every value a fallback split extracts as a cache miss.
type cacheMisses struct {
	sqlengine.BatchSource
	m *sqlengine.Metrics
	f *CombinedScanFactory
}

// NextBatch implements sqlengine.BatchSource.
func (s *cacheMisses) NextBatch(b *sqlengine.RowBatch) (int, error) {
	n, err := s.BatchSource.NextBatch(b)
	if err != nil || n == 0 {
		return n, err
	}
	values := int64(len(s.f.fallbacks)) * int64(n)
	if s.m != nil {
		s.m.CacheMisses.Add(values)
	}
	s.f.obsc.fallbackValues.Add(values)
	return n, nil
}

// combinedRowSource streams stitched rows: primary columns first, cache
// columns after, matching the schema the plan modifier installed.
type combinedRowSource struct {
	rawCur     *orc.Cursor // nil when every projected column is cached
	cacheCur   *orc.Cursor
	rawMeter   sqlengine.ReadMeter // zero (inert) without a rawCur
	cacheMeter sqlengine.ReadMeter
	m          *sqlengine.Metrics
	nPrimary   int
	nCache     int
	sharedMask bool
	obsc       *combinerObs
	// degrade quarantines the cache table and wraps a mid-stream cache-side
	// error in ErrCacheDegraded. Rows already emitted cannot be un-emitted,
	// so unlike an open failure this cannot fall back in place — the query
	// fails and Maxson re-plans it onto the raw path.
	degrade func(error) error
}

// degradeErr routes a cache-side error through the factory's degrade hook
// (identity when unset, e.g. sources built directly in tests).
func (s *combinedRowSource) degradeErr(err error) error {
	if s.degrade != nil {
		return s.degrade(err)
	}
	return err
}

// NextBatch implements sqlengine.BatchSource (Algorithm 2: read both splits,
// pair rows positionally, place values by schema position): the paired
// cursors decode their files straight into the batch's column vectors — raw
// columns into the primary slots, cache columns after them — so stitching
// costs zero copies: each value is written once, where the executor reads it,
// and string values are views of the part file they came from (they stay
// valid for the query; the engine clones what it returns). Both cursors honor
// the same row-group mask, so a mismatched batch count means the §IV-C
// alignment invariant broke.
func (s *combinedRowSource) NextBatch(b *sqlengine.RowBatch) (int, error) {
	if len(b.Cols) < s.nPrimary+s.nCache {
		return 0, fmt.Errorf("core: batch has %d columns, combined source needs %d", len(b.Cols), s.nPrimary+s.nCache)
	}
	max := b.Capacity()
	n, err := s.cacheCur.NextBatch(b.Cols[s.nPrimary:s.nPrimary+s.nCache], max)
	if err != nil {
		return 0, s.degradeErr(err)
	}
	if s.rawCur != nil {
		nRaw, err := s.rawCur.NextBatch(b.Cols[:s.nPrimary], max)
		if err != nil {
			return 0, err
		}
		if nRaw != n {
			return 0, s.degradeErr(fmt.Errorf("core: paired readers desynchronized (raw %d rows vs cache %d)", nRaw, n))
		}
	}
	s.rawMeter.Flush(s.m, true)
	// Cache-only reading: the cache cursor is the row scan.
	s.cacheMeter.Flush(s.m, s.rawCur == nil)
	if n == 0 {
		return 0, nil
	}
	if s.m != nil {
		s.m.CacheValuesRead.Add(int64(s.nCache) * int64(n))
		s.m.CacheHits.Add(int64(n)) // stitched rows served from cache
	}
	s.obsc.rowsStitched.Add(int64(n))
	return n, nil
}
