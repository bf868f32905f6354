package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
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
// synchronized readers per split — the PrimaryReader, the engine's split
// reader over the raw table's uncached columns, and the CacheReader over the
// cache table's columns — and stitches their rows positionally into complete
// records. A split is served from the cache only while its raw part is at the
// dfs version the manifest filed its cache part under; every other split
// parses the raw JSON. When the query carries a predicate on a cached path,
// the CacheReader evaluates the SARG against the cache table's row-group
// statistics and shares the resulting skip array with the PrimaryReader
// (paper §IV-F), provided both files have a single stripe.
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
	// for a split the manifest does not serve (a part rewritten since, or
	// appended without being ingested). Aligned with cacheCols.
	fallbacks []sqlengine.Extraction

	// extract is what the raw side extracts into the columns after the
	// cache's, whether or not the cache serves the split: the calls of the
	// plan the cache does not serve, or a shared pass's union of them.
	extract []sqlengine.Extraction
	// backend is the parser backend the raw side extracts through (nil
	// streams).
	backend sqlengine.ParserBackend

	// Pushdown enables sharing the cache reader's row-group mask with the
	// primary reader.
	pushdown bool

	schema sqlengine.RowSchema

	// registry, when set, unserves a cache table that fails to open or
	// decode, so the planner stops routing to it.
	registry *Registry

	// obsc publishes open-mode and hit/miss counters.
	obsc *combinerObs

	// The raw side's split readers, built at the first split needing one: raw
	// for covered splits (nil if it would read nothing), fallback otherwise.
	rawOnce, fallbackOnce sync.Once
	raw, fallback         *sqlengine.SplitReader
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

// ShareKey implements scanshare.Unioner. Beyond the raw scan, combined scans
// one pass serves agree on the cache table (its name carries the generation),
// on the cache side's row-group predicate, whose skip array is shared rather
// than unioned, and on the pushdown mode. Their manifests may differ by the
// splits ingest added in between: the pass reads through the first one's,
// and any split it serves is at the raw version the others would serve it at.
func (f *CombinedScanFactory) ShareKey() string {
	key := f.manifest.CacheTable + "\x00" + strconv.FormatBool(f.pushdown)
	if f.cacheSARG != nil {
		key += "\x00" + f.cacheSARG.String()
	}
	return key
}

// Union implements scanshare.Unioner: one combined scan serving every factory
// of fs, each a *CombinedScanFactory over f's raw scan with f's share key. Its
// cache columns are the union of theirs, each with its fallback and its
// schema column, and after them it extracts extract into the columns extCols
// describes. A union that adds nothing to f is f.
func (f *CombinedScanFactory) Union(fs []sqlengine.ScanSourceFactory, extract []sqlengine.Extraction, extCols []sqlengine.RowCol) sqlengine.ScanSourceFactory {
	type cacheCol struct {
		fallback sqlengine.Extraction
		schema   sqlengine.RowCol
	}
	union := make(map[string]cacheCol, len(f.cacheCols))
	for _, g := range fs {
		c := g.(*CombinedScanFactory)
		for i, col := range c.cacheCols {
			union[col] = cacheCol{c.fallbacks[i], c.schema.Cols[len(c.primaryCols)+i]}
		}
	}
	if len(union) == len(f.cacheCols) && slices.Equal(extCols, f.schema.Cols[len(f.primaryCols)+len(f.cacheCols):]) {
		return f
	}
	cacheCols := make([]string, 0, len(union))
	for col := range union {
		cacheCols = append(cacheCols, col)
	}
	sort.Strings(cacheCols)
	schema := slices.Clip(f.schema.Cols[:len(f.primaryCols)])
	fbs := make([]sqlengine.Extraction, len(cacheCols))
	for i, col := range cacheCols {
		fbs[i] = union[col].fallback
		schema = append(schema, union[col].schema)
	}
	u := NewCombinedScanFactory(f.wh, f.rawDB, f.rawTable, f.primaryCols, f.primarySARG,
		f.manifest, cacheCols, f.cacheSARG, fbs, f.pushdown, sqlengine.RowSchema{Cols: append(schema, extCols...)}, f.obsc)
	u.registry, u.extract, u.backend = f.registry, extract, f.backend
	return u
}

// splitReader reads the raw side's primary columns and extracts list.
func (f *CombinedScanFactory) splitReader(list []sqlengine.Extraction) *sqlengine.SplitReader {
	return sqlengine.NewSplitReader(f.wh, &sqlengine.ScanNode{
		DB: f.rawDB, Table: f.rawTable, Columns: f.primaryCols, SARG: f.primarySARG, Extract: list,
	}, f.backend)
}

// SetRegistry attaches the cache registry so the factory can quarantine a
// cache table it finds broken.
func (f *CombinedScanFactory) SetRegistry(r *Registry) { f.registry = r }

// quarantineCache unserves this factory's cache table until the next swap.
func (f *CombinedScanFactory) quarantineCache() {
	if f.registry != nil {
		f.registry.Quarantine(f.manifest.CacheTable)
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

// Open implements sqlengine.ScanSourceFactory. A walk's sources keep one
// another: prev re-aims the walk's last combined source at a split the cache
// serves and its last fallback source at one it does not, whichever of the
// two prev is.
func (f *CombinedScanFactory) Open(split int, m *sqlengine.Metrics, prev sqlengine.BatchSource) (sqlengine.BatchSource, error) {
	rawInfo, err := f.wh.Table(f.rawDB, f.rawTable)
	if err != nil {
		return nil, err
	}
	if split < 0 || split >= len(rawInfo.Files) {
		return nil, fmt.Errorf("core: split %d out of range for %s.%s", split, f.rawDB, f.rawTable)
	}
	raw := rawInfo.Files[split]
	src, misses := f.lanes(prev)
	// A part the manifest holds no record of at its current version —
	// rewritten, appended without being ingested, from a recreated table,
	// or cached from a corrupted read — reads raw data and parses the paths
	// on the fly.
	sp := f.manifest.split(raw, rawInfo.Versions[split])
	if sp == nil {
		return f.openFallback(src, misses, raw, m, &f.obsc.uncovered)
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
		return f.openFallback(src, misses, raw, m, &f.obsc.retired)
	}
	if err != nil || !view.Stored || view.Version != sp.CacheVersion || cacheReader.NumRows() != sp.Rows {
		f.quarantineCache()
		return f.openFallback(src, misses, raw, m, &f.obsc.quarantined)
	}
	if src == nil {
		src = &combinedRowSource{f: f, misses: misses}
		if misses != nil {
			misses.combined = src
		}
	}
	src.m, src.sharedMask, src.cacheMeter = m, false, sqlengine.ReadMeter{}
	if err := src.cacheCur.Reopen(cacheReader, f.cacheCols, f.cacheSARG, &src.cacheMeter.Stats); err != nil {
		f.quarantineCache()
		return f.openFallback(src, misses, raw, m, &f.obsc.quarantined)
	}

	// PrimaryReader (absent when it would read nothing).
	f.rawOnce.Do(func() {
		if len(f.primaryCols) > 0 || len(f.extract) > 0 {
			f.raw = f.splitReader(f.extract)
		}
	})
	if f.raw != nil {
		rawReader, rawView, err := f.wh.OpenFileView(raw)
		if err != nil {
			return nil, err
		}
		if rawView.Version != sp.RawVersion {
			// Rewritten since the listing: the cache part no longer
			// describes what this reader would stitch it to.
			return f.openFallback(src, misses, raw, m, &f.obsc.uncovered)
		}
		// Row alignment sanity (the §IV-C invariant). Both parts are at the
		// versions the manifest records, so a mismatch means a read was
		// mangled: degrade.
		if rawReader.NumRows() != cacheReader.NumRows() {
			f.quarantineCache()
			return f.openFallback(src, misses, raw, m, &f.obsc.quarantined)
		}
		rawSrc, rawCur, err := f.raw.OpenReader(rawReader, m, src.raw)
		if err != nil {
			return nil, err
		}
		src.raw = rawSrc
		// Predicate pushdown: share the cache reader's skip array. Only
		// valid when both files are single-stripe so row groups align
		// (paper §IV-F) and the group counts agree.
		aligned := rawReader.NumStripes() <= 1 && cacheReader.NumStripes() <= 1 &&
			rawReader.NumRowGroups() == cacheReader.NumRowGroups()
		if f.pushdown && f.cacheSARG != nil && aligned {
			if err := rawCur.IntersectMask(&src.cacheCur); err != nil {
				return nil, err
			}
			src.sharedMask = true
		}
		// The cache side must also honor the primary reader's own skips so
		// both cursors keep visiting the same groups.
		if src.sharedMask || f.primarySARG != nil && aligned {
			if err := src.cacheCur.IntersectMask(rawCur); err != nil {
				return nil, err
			}
		}
	}
	if m != nil {
		switch {
		case src.sharedMask:
			m.MarkScanMode(sqlengine.ScanCombinedPushdown)
		case src.raw == nil:
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
	return src, nil
}

// lanes returns the two sources of the walk prev ended, either of them nil
// when the walk has not needed it or prev is not this factory's.
func (f *CombinedScanFactory) lanes(prev sqlengine.BatchSource) (*combinedRowSource, *cacheMisses) {
	switch s := prev.(type) {
	case *combinedRowSource:
		if s.f == f {
			return s, s.misses
		}
	case *cacheMisses:
		if s.f == f {
			return s.combined, s
		}
	}
	return nil, nil
}

// openFallback serves one split the cache does not: the engine's split
// reader decodes the primary columns and extracts the cache columns from the
// raw JSON — the cost a rewritten or uncached appended file pays until the
// next midnight cycle covers it — and the scan's extract list after them.
// mode says why: an uncovered split, a retired cache generation or a
// quarantined one. misses, when not nil, is re-aimed; combined is the walk's
// other source, kept beside it.
func (f *CombinedScanFactory) openFallback(combined *combinedRowSource, misses *cacheMisses, file string, m *sqlengine.Metrics, mode *fallbackMode) (sqlengine.BatchSource, error) {
	if m != nil {
		m.MarkScanMode(mode.bit)
		if m.Span != nil {
			m.Span.Set("source", mode.label)
		}
	}
	mode.opens.Inc()
	f.fallbackOnce.Do(func() {
		f.fallback = f.splitReader(append(slices.Clip(f.fallbacks), f.extract...))
	})
	rd, err := f.wh.OpenFile(file)
	if err != nil {
		return nil, err
	}
	if misses == nil {
		misses = &cacheMisses{f: f, combined: combined}
		if combined != nil {
			combined.misses = misses
		}
	}
	src, _, err := f.fallback.OpenReader(rd, m, misses.BatchSource)
	if err != nil {
		return nil, err
	}
	misses.BatchSource, misses.m = src, m
	return misses, nil
}

// cacheMisses counts every value a fallback split extracts as a cache miss.
// combined is its walk's combined source, nil until a split needs one.
type cacheMisses struct {
	sqlengine.BatchSource
	m        *sqlengine.Metrics
	f        *CombinedScanFactory
	combined *combinedRowSource
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
// columns after, then the columns the raw side extracts — the schema the plan
// modifier, or a shared pass, installed.
type combinedRowSource struct {
	f          *CombinedScanFactory
	raw        sqlengine.BatchSource // nil when the raw side is not read
	cacheCur   orc.Cursor
	cacheMeter sqlengine.ReadMeter
	m          *sqlengine.Metrics
	sharedMask bool
	misses     *cacheMisses // its walk's fallback source, nil until a split needs one
}

// NextBatch implements sqlengine.BatchSource (Algorithm 2: read both splits,
// pair rows positionally, place values by schema position): the cache cursor
// decodes straight into the cache slots of the batch and the split reader
// fills the primary slots before them and its extracted columns after, so
// stitching costs zero copies: each value is written once, where the executor
// reads it, and string values are views of the part file they came from (they
// stay valid for the query; the engine clones what it returns). Both readers
// honor the same row-group mask, so a mismatched batch count means the §IV-C
// alignment invariant broke. A cache-side failure degrades: rows already
// emitted cannot be un-emitted, so unlike an open failure it cannot fall back
// in place — the query fails and Maxson re-plans it onto the raw path.
func (s *combinedRowSource) NextBatch(b *sqlengine.RowBatch) (int, error) {
	nPrimary, nCache := len(s.f.primaryCols), len(s.f.cacheCols)
	if len(b.Cols) < nPrimary+nCache {
		return 0, fmt.Errorf("core: batch has %d columns, combined source needs %d", len(b.Cols), nPrimary+nCache)
	}
	n, err := s.cacheCur.NextBatch(b.Cols[nPrimary:nPrimary+nCache], b.Capacity())
	if err != nil {
		return 0, s.f.degrade(err)
	}
	if s.raw != nil {
		nRaw, err := s.raw.NextBatch(b)
		if err != nil {
			return 0, err
		}
		if nRaw != n {
			return 0, s.f.degrade(fmt.Errorf("core: paired readers desynchronized (raw %d rows vs cache %d)", nRaw, n))
		}
	}
	// Cache-only reading: the cache cursor is the row scan.
	s.cacheMeter.Flush(s.m, s.raw == nil)
	if n == 0 {
		return 0, nil
	}
	if s.m != nil {
		s.m.CacheValuesRead.Add(int64(nCache) * int64(n))
		s.m.CacheHits.Add(int64(n)) // stitched rows served from cache
	}
	s.f.obsc.rowsStitched.Add(int64(n))
	return n, nil
}
