package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/jsonpath"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/pathkey"
	"repro/internal/warehouse"
)

// CacheDB is the database that holds every cache table.
const CacheDB = "maxson_cache"

// CacheTableName maps a raw table to its cache table's base name, following
// the paper's naming scheme (database name + raw table name, §IV-C). The
// cacher appends a generation suffix so each nightly population writes
// fresh tables while the previous generation keeps serving in-flight
// queries until the next cycle deletes it — the paper's "invalid cache
// tables would be deleted when we perform caching operations next time".
func CacheTableName(db, table string) string { return db + "__" + table }

func generationTableName(db, table string, gen int) string {
	return fmt.Sprintf("%s__g%03d", CacheTableName(db, table), gen)
}

// Cacher is the JSONPath Cacher: at the start of a population cycle it
// receives score-ranked MPJPs, parses their values out of the raw tables,
// and writes cache tables whose part files align one-to-one with the raw
// tables' part files so the Value Combiner's paired readers can stitch rows
// positionally without a join (paper §IV-C).
type Cacher struct {
	wh       *warehouse.Warehouse
	registry *Registry
	// RowGroupRows matches the raw tables' row-group size so shared
	// skip-arrays line up row-for-row.
	RowGroupRows int
	// Log, when set, receives a debug record for each table whose previous
	// generation could have been carried forward and was not, with the reasons.
	Log *slog.Logger

	// mu guards generation, provenance and pendingDrop: queries, gauges and
	// SaveState read them while an online cycle or LoadState writes them.
	mu sync.Mutex
	// generation numbers each population cycle; cache tables carry it in
	// their name so generations never collide.
	generation int
	// provenance holds, per raw table ("db.table"), what the active
	// generation's cache table was built from. A committed cycle replaces it
	// whole, an aborted one leaves it, and RestoreState empties it: it is not
	// persisted, so a restarted node extracts everything once.
	provenance map[string]*tableProvenance
	// pendingDrop lists the previous generation's tables, deleted at the
	// START of the next cycle so queries planned against the old registry
	// can finish against intact tables.
	pendingDrop [][2]string // (db, table)

	// obs counters (nil until SetObs): population cycles publish totals here
	// so malformed documents are visible operationally, not silently NULLed.
	parseErrorsC  *obs.Counter
	bytesScannedC *obs.Counter
	bytesSkippedC *obs.Counter
	splitsC       [3]*obs.Counter // carried, rewritten, extracted
}

// CacheStats summarizes one population cycle. A generation's size is
// BytesWritten + BytesCarried.
type CacheStats struct {
	PathsCached   int
	RowsParsed    int64
	BytesWritten  int64 // cache bytes encoded this cycle
	BytesCarried  int64 // cache bytes linked from the previous generation
	BytesScanned  int64 // raw JSON bytes the population scan actually read
	BytesSkipped  int64 // raw JSON bytes the streaming extractor skipped
	ParseErrors   int64 // malformed documents encountered (values cached as NULL)
	TablesWritten int
	Dropped       int // invalid cache tables deleted
	// Every cache split is one of: linked whole from the previous generation
	// (carried), encoded anew with at least one column copied from it
	// (rewritten), or extracted from the raw JSON alone.
	SplitsCarried   int
	SplitsRewritten int
	SplitsExtracted int
}

// add folds one table's stats into the cycle's.
func (s *CacheStats) add(t CacheStats) {
	s.RowsParsed += t.RowsParsed
	s.BytesWritten += t.BytesWritten
	s.BytesCarried += t.BytesCarried
	s.BytesScanned += t.BytesScanned
	s.BytesSkipped += t.BytesSkipped
	s.ParseErrors += t.ParseErrors
	s.SplitsCarried += t.SplitsCarried
	s.SplitsRewritten += t.SplitsRewritten
	s.SplitsExtracted += t.SplitsExtracted
}

// NewCacher builds a cacher writing through the warehouse.
func NewCacher(wh *warehouse.Warehouse, registry *Registry) *Cacher {
	return &Cacher{
		wh:           wh,
		registry:     registry,
		RowGroupRows: wh.WriterOptions().RowGroupRows,
	}
}

// SetObs resolves the cacher's counters against a metrics registry. Parse
// errors and scan volumes publish there after every population cycle.
func (c *Cacher) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	c.parseErrorsC = r.Counter("cacher_parse_errors_total")
	c.bytesScannedC = r.Counter("cacher_parse_bytes_scanned_total")
	c.bytesSkippedC = r.Counter("cacher_parse_bytes_skipped_total")
	for i, mode := range []string{"carried", "rewritten", "extracted"} {
		c.splitsC[i] = r.Counter("cacher_splits_total", obs.L{K: "mode", V: mode})
	}
}

// PopulateCtx runs one caching cycle: it drops the cache tables the previous
// cycle retired and builds a new generation holding the selected profiles in
// order. The paper empties and re-populates every midnight; here a generation
// is an incremental function of the one before it — what is unchanged since
// (same raw file version, same path) is carried forward, and the result is
// byte for byte what re-populating from the raw tables would have written
// (see tableProvenance, populateSplit). What remains is extracted in a single
// streaming pass per document and JSON column, and CacheStats meters the
// bytes it actually scanned.
//
// The cycle is crash-safe: the new generation's tables are built and
// registered nowhere until every table succeeds, then committed with one
// atomic registry swap. A failure (I/O error, worker panic, cancellation) at
// ANY point leaves the previous generation serving untouched; the partially
// built tables are deleted immediately, since no query can have planned
// against them.
func (c *Cacher) PopulateCtx(ctx context.Context, selected []*PathProfile) (CacheStats, error) {
	var stats CacheStats

	// Delete the generation retired during the PREVIOUS cycle: no live
	// query can still reference it (its registry entries vanished a full
	// cycle ago). RunMidnightCycleCtx calls DropRetired itself (so the stage
	// is timed separately); this call is then a no-op, but keeps direct
	// CacheSelected users correct.
	stats.Dropped = c.DropRetired()
	c.mu.Lock()
	c.generation++
	gen := c.generation
	prev := c.provenance
	c.mu.Unlock()

	// Group selections by raw table: all MPJPs of one raw table go into one
	// cache table (paper: "we cache the JSONPath from the same raw data
	// table into the same cache table").
	byTable := make(map[string][]*PathProfile)
	var tableIDs []string
	for _, p := range selected {
		id := p.Key.TableID()
		if _, ok := byTable[id]; !ok {
			tableIDs = append(tableIDs, id)
		}
		byTable[id] = append(byTable[id], p)
	}
	sort.Strings(tableIDs)

	c.wh.CreateDatabase(CacheDB)
	// Tables populate in parallel — the paper runs pre-parsing "in a
	// scalable way using Spark" across the cluster's idle midnight
	// capacity. Stats merge after the fan-out.
	type tableResult struct {
		stats   CacheStats
		entries []*CacheEntry
		prov    *tableProvenance
		err     error
	}
	results := make([]tableResult, len(tableIDs))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tableIDs) {
		workers = len(tableIDs)
	}
	sem := make(chan struct{}, maxInt(workers, 1))
	for i, id := range tableIDs {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			// A panicking populate worker fails the cycle, not the process;
			// the previous generation keeps serving.
			defer func() {
				if r := recover(); r != nil {
					results[i].err = fmt.Errorf("core: populate of %s panicked: %v", id, r)
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local CacheStats
			entries, prov, err := c.populateTable(ctx, byTable[id], gen, prev[id], &local)
			results[i] = tableResult{stats: local, entries: entries, prov: prov, err: err}
		}(i, id)
	}
	wg.Wait()
	var newEntries []*CacheEntry
	provenance := make(map[string]*tableProvenance, len(tableIDs))
	var firstErr error
	for i, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		newEntries = append(newEntries, r.entries...)
		if r.prov != nil {
			provenance[tableIDs[i]] = r.prov
		}
		stats.PathsCached += len(r.entries)
		stats.add(r.stats)
		stats.TablesWritten++
	}
	if firstErr != nil {
		// Abort: delete this generation's tables right away (nothing
		// referenced them; a link dies with its name, the bytes it shared
		// stay with the previous generation) and leave that one serving,
		// its provenance still filed for the next cycle to carry from.
		c.dropGeneration(tableIDs, gen)
		return stats, firstErr
	}

	// Commit: swap the registry atomically, then queue the displaced
	// generation's tables for deferred deletion so in-flight queries
	// planned against the old entries finish on intact files. A new
	// generation also lifts any quarantine — the bad tables are gone, and
	// nothing of a quarantined table was carried into this one.
	old := c.registry.Swap(newEntries)
	c.registry.ClearQuarantine()
	retired := map[[2]string]bool{}
	for _, e := range old {
		retired[[2]string{e.CacheDB, e.CacheTable}] = true
	}
	c.mu.Lock()
	c.provenance = provenance
	for t := range retired {
		c.pendingDrop = append(c.pendingDrop, t)
	}
	sort.Slice(c.pendingDrop, func(i, j int) bool {
		return c.pendingDrop[i][0]+c.pendingDrop[i][1] < c.pendingDrop[j][0]+c.pendingDrop[j][1]
	})
	c.mu.Unlock()

	if c.parseErrorsC != nil {
		c.parseErrorsC.Add(stats.ParseErrors)
		c.bytesScannedC.Add(stats.BytesScanned)
		c.bytesSkippedC.Add(stats.BytesSkipped)
		c.splitsC[0].Add(int64(stats.SplitsCarried))
		c.splitsC[1].Add(int64(stats.SplitsRewritten))
		c.splitsC[2].Add(int64(stats.SplitsExtracted))
	}
	return stats, nil
}

// dropGeneration deletes the named raw tables' cache tables of one
// generation, ignoring tables that were never created.
func (c *Cacher) dropGeneration(tableIDs []string, gen int) {
	for _, id := range tableIDs {
		db, table, ok := splitTableID(id)
		if !ok {
			continue
		}
		name := generationTableName(db, table, gen)
		if c.wh.TableExists(CacheDB, name) {
			if err := c.wh.DropTable(CacheDB, name); err != nil {
				continue
			}
		}
	}
}

// DropRetired deletes the cache tables queued for deferred deletion by the
// previous cycle and returns how many were dropped. PopulateCtx runs it
// implicitly; RunMidnightCycleCtx calls it explicitly first so the
// retire-deferred-delete stage is accounted on its own.
func (c *Cacher) DropRetired() int {
	c.mu.Lock()
	pending := c.pendingDrop
	c.pendingDrop = nil
	c.mu.Unlock()
	dropped := 0
	for _, t := range pending {
		if c.wh.TableExists(t[0], t[1]) {
			if err := c.wh.DropTable(t[0], t[1]); err == nil {
				dropped++
			}
		}
	}
	return dropped
}

// Generation returns the number of population cycles run so far.
func (c *Cacher) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// PendingDrops returns how many retired cache tables await deferred
// deletion at the start of the next cycle.
func (c *Cacher) PendingDrops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pendingDrop)
}

// StateSnapshot exports the cacher's durable state — the generation counter
// and the deferred-deletion queue — for SaveState.
func (c *Cacher) StateSnapshot() (generation int, pendingDrop [][2]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := make([][2]string, len(c.pendingDrop))
	copy(pending, c.pendingDrop)
	return c.generation, pending
}

// RestoreState reinstates a snapshot taken by StateSnapshot. LoadState uses
// it so a restarted node resumes generation numbering (fresh cache tables
// never collide with survivors) and still deletes tables the previous
// incarnation had retired.
func (c *Cacher) RestoreState(generation int, pendingDrop [][2]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if generation > c.generation {
		c.generation = generation
	}
	c.pendingDrop = append([][2]string(nil), pendingDrop...)
	c.provenance = nil // it described the registry this restore replaces
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// splitTableID undoes pathkey.Key.TableID ("db.table").
func splitTableID(id string) (db, table string, ok bool) {
	i := strings.IndexByte(id, '.')
	if i < 0 {
		return "", "", false
	}
	return id[:i], id[i+1:], true
}

// tableProvenance records what the active generation's cache table of one raw
// table was built from, split by split, so the next generation can carry
// forward what has not changed instead of parsing it again. It lives in
// memory only and is immutable once filed.
type tableProvenance struct {
	cacheTable string
	keys       []pathkey.Key // the cached paths, in cache-column order
	splits     []splitProvenance
}

// splitProvenance is one cache split's record. One without a rawPath carries
// the split's byte counts and no provenance: the next generation extracts
// that split from the raw file like a first one. Provenance is filed only for
// a split whose values are a pure function of the named raw content — the raw
// read returned the stored bytes (dfs.View.Stored) and no document in it was
// malformed (after a syntax error every path of the scanned set reads NULL,
// so such a split's values depend on which paths were extracted together).
type splitProvenance struct {
	rawPath      string
	rawVersion   uint64 // dfs version of the raw bytes the values came from
	cachePath    string
	cacheVersion uint64 // dfs version the cache part was stored under
	rows         int64
	colBytes     []int64 // value bytes per column, summed into CacheEntry.Bytes
}

// errCarryBroken aborts one attempt to build a split from the previous
// generation; the split is then built again from the raw file alone.
var errCarryBroken = errors.New("core: previous cache split cannot be carried")

// populateBatchRows is how many rows a populate pass moves at a time.
const populateBatchRows = 256

// cacheColumn is one selected path of the table being populated.
type cacheColumn struct {
	key  pathkey.Key
	path *jsonpath.Path
	name string // cache column name (paper's cache-field naming)
	// prev is the column's position in the previous generation's table, -1
	// when that table did not hold this path.
	prev int
}

// extractPlan reads a set of cache columns out of the raw JSON: the raw
// columns to open, and per raw column one extractor over all its paths, so a
// document is scanned once however many paths it feeds.
type extractPlan struct {
	readCols []string
	vecs     [][]datum.Datum // what the raw cursor decodes into
	groups   []extractGroup  // one per entry of readCols
}

type extractGroup struct {
	cols []int // cache column indexes, in extractor path order
	x    *jsonpath.Extractor
}

// tablePopulate is the state of one populateTable call.
type tablePopulate struct {
	c          *Cacher
	stats      *CacheStats
	cacheTable string
	schema     orc.Schema
	cols       []cacheColumn
	// out holds one batch of the table being written, column-wise, backed by
	// one array: copied columns are decoded into it, extracted ones stored.
	out [][]datum.Datum
	// sameCols: the previous table held exactly these columns in this order,
	// so an unchanged split is linked rather than rewritten.
	sameCols bool
	// carried lists the columns the previous table holds; carryVecs are their
	// vectors in out, handed to the previous part's cursor.
	carried   []string
	carryVecs [][]datum.Datum
	// all extracts every column, missing only those the previous table lacks
	// (no groups when it holds them all). Both are built on first use.
	all, missing *extractPlan
}

// populateTable builds one raw table's cache table of generation gen and
// returns its registry entries and provenance. Entries are NOT installed
// here — PopulateCtx commits all tables' entries in one atomic swap after
// every table succeeds. prev is the previous generation's provenance of the
// same raw table, nil when there is none.
func (c *Cacher) populateTable(ctx context.Context, group []*PathProfile, gen int, prev *tableProvenance, stats *CacheStats) ([]*CacheEntry, *tableProvenance, error) {
	key0 := group[0].Key
	// Stamp before the raw table is listed: a rewrite that lands at any point
	// of the populate then has rewriteTime >= CachedAt and the planner treats
	// the entries as stale, whichever files had already been read or carried.
	cachedAt := c.wh.Clock().Now()
	rawParts, err := c.wh.Parts(key0.DB, key0.Table)
	if err != nil {
		return nil, nil, err
	}
	// Compile the paths and define the cache schema: one STRING column per
	// path, named column__path (paper's cache-field naming).
	tp := &tablePopulate{c: c, stats: stats, cacheTable: generationTableName(key0.DB, key0.Table, gen)}
	for _, p := range group {
		cp, err := jsonpath.Compile(p.Key.Path)
		if err != nil {
			continue
		}
		col := cacheColumn{key: p.Key, path: cp, name: p.Key.Sanitized(), prev: -1}
		tp.cols = append(tp.cols, col)
		tp.schema.Columns = append(tp.schema.Columns, orc.Column{Name: col.name, Type: datum.TypeString})
	}
	if len(tp.cols) == 0 {
		return nil, nil, nil
	}
	if c.wh.TableExists(CacheDB, tp.cacheTable) {
		if err := c.wh.DropTable(CacheDB, tp.cacheTable); err != nil {
			return nil, nil, err
		}
	}
	if err := c.wh.CreateTable(CacheDB, tp.cacheTable, tp.schema); err != nil {
		return nil, nil, err
	}
	flat := make([]datum.Datum, len(tp.cols)*populateBatchRows)
	for i := range tp.cols {
		tp.out = append(tp.out, flat[i*populateBatchRows:(i+1)*populateBatchRows])
	}
	prevParts := tp.matchPrevious(prev)

	// One cache file per raw file, in split order: this is the alignment
	// invariant the Value Combiner depends on.
	prov := &tableProvenance{cacheTable: tp.cacheTable, splits: make([]splitProvenance, len(rawParts))}
	for _, col := range tp.cols {
		prov.keys = append(prov.keys, col.key)
	}
	notCarried := map[string]int{} // reason → splits
	for i, raw := range rawParts {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var from *splitProvenance
		if prev != nil {
			var why string
			if from, why = tp.carriable(prev, prevParts, i, raw); from == nil {
				notCarried[why]++
			}
		}
		before := *stats
		sp, err := tp.populateSplit(ctx, raw, from)
		if from != nil && errors.Is(err, errCarryBroken) {
			// Nothing was appended; the stats describe the split as built.
			notCarried[err.Error()]++
			*stats = before
			sp, err = tp.populateSplit(ctx, raw, nil)
		}
		if err != nil {
			return nil, nil, err
		}
		prov.splits[i] = sp
	}
	if prev != nil && stats.SplitsCarried+stats.SplitsRewritten == 0 && c.Log != nil {
		c.Log.Debug("nothing carried from the previous cache generation",
			"table", key0.TableID(), "previous", prev.cacheTable, "reasons", fmt.Sprint(notCarried))
	}

	entries := make([]*CacheEntry, len(tp.cols))
	for j, col := range tp.cols {
		entries[j] = &CacheEntry{
			Key:         col.key,
			CacheDB:     CacheDB,
			CacheTable:  tp.cacheTable,
			CacheColumn: col.name,
			CachedAt:    cachedAt,
		}
		for _, sp := range prov.splits {
			entries[j].Bytes += sp.colBytes[j]
		}
	}
	return entries, prov, nil
}

// matchPrevious lines tonight's columns up with the previous generation's
// table and returns that table's part files (nil when it is gone).
func (tp *tablePopulate) matchPrevious(prev *tableProvenance) []dfs.FileInfo {
	if prev == nil {
		return nil
	}
	parts, err := tp.c.wh.Parts(CacheDB, prev.cacheTable)
	if err != nil {
		return nil
	}
	// Two paths can sanitize to one column name; such a column is never
	// copied, since a cursor finds columns by name.
	named := map[string]int{}
	for _, key := range prev.keys {
		named[key.Sanitized()]++
	}
	tp.sameCols = len(prev.keys) == len(tp.cols)
	for j := range tp.cols {
		col := &tp.cols[j]
		for k, key := range prev.keys {
			if key == col.key && named[col.name] == 1 {
				col.prev = k
			}
		}
		if col.prev != j {
			tp.sameCols = false
		}
		if col.prev >= 0 {
			tp.carried = append(tp.carried, col.name)
			tp.carryVecs = append(tp.carryVecs, tp.out[j])
		}
	}
	return parts
}

// carriable decides whether raw split i can be built from the previous
// generation's split i, and says why not when it cannot.
func (tp *tablePopulate) carriable(prev *tableProvenance, prevParts []dfs.FileInfo, i int, raw dfs.FileInfo) (*splitProvenance, string) {
	if i >= len(prev.splits) || prev.splits[i].rawPath == "" {
		return nil, "no provenance"
	}
	sp := &prev.splits[i]
	switch {
	case sp.rawPath != raw.Name || sp.rawVersion != raw.Version:
		return nil, "raw version changed"
	case tp.c.registry.IsQuarantined(CacheDB, prev.cacheTable):
		return nil, "quarantined"
	case i >= len(prevParts) || prevParts[i].Name != sp.cachePath || prevParts[i].Version != sp.cacheVersion:
		return nil, "cache part changed"
	case len(tp.carried) == 0:
		return nil, "columns differ"
	}
	return sp, ""
}

// plan returns the extraction plan for every column (missingOnly false) or
// for the columns the previous table lacks.
func (tp *tablePopulate) plan(missingOnly bool) (*extractPlan, error) {
	slot := &tp.all
	if missingOnly {
		slot = &tp.missing
	}
	if *slot != nil {
		return *slot, nil
	}
	// Group the columns per raw JSON column, raw columns in name order.
	byRaw := map[string][]int{}
	p := &extractPlan{}
	for j, col := range tp.cols {
		if missingOnly && col.prev >= 0 {
			continue
		}
		if _, ok := byRaw[col.key.Column]; !ok {
			p.readCols = append(p.readCols, col.key.Column)
		}
		byRaw[col.key.Column] = append(byRaw[col.key.Column], j)
	}
	sort.Strings(p.readCols)
	for _, name := range p.readCols {
		g := extractGroup{cols: byRaw[name]}
		compiled := make([]*jsonpath.Path, len(g.cols))
		for k, j := range g.cols {
			compiled[k] = tp.cols[j].path
		}
		set, err := jsonpath.NewPathSet(compiled...)
		if err != nil {
			return nil, err
		}
		g.x = jsonpath.NewExtractor(set)
		p.groups = append(p.groups, g)
		// The cursor decodes the file's values straight into these vectors
		// (documents as views of the part file; the extractor copies what it
		// returns, so nothing written to the cache aliases the raw file).
		p.vecs = append(p.vecs, make([]datum.Datum, populateBatchRows))
	}
	*slot = p
	return p, nil
}

// populateSplit is the populate kernel: it appends the cache split of one raw
// part file to the table and returns its provenance. Each column is copied
// from the previous generation's split (from, nil when nothing can be
// carried) if that split holds it, and extracted from the raw JSON otherwise;
// the raw file is opened only if some column must be extracted, and a split
// whose columns are all there in the same order is linked, not rewritten.
// With from == nil this is the from-scratch populate. An attempt that finds
// the carried side unusable returns errCarryBroken before anything is
// appended.
func (tp *tablePopulate) populateSplit(ctx context.Context, raw dfs.FileInfo, from *splitProvenance) (splitProvenance, error) {
	wh, st := tp.c.wh, tp.stats
	if from != nil && tp.sameCols {
		part, err := wh.LinkPart(CacheDB, tp.cacheTable, from.cachePath)
		if err != nil {
			return splitProvenance{}, err
		}
		st.SplitsCarried++
		st.BytesCarried += part.Size
		sp := *from
		sp.cachePath, sp.cacheVersion = part.Name, part.Version
		return sp, nil
	}

	sp := splitProvenance{rawPath: raw.Name, colBytes: make([]int64, len(tp.cols))}
	plan, err := tp.plan(from != nil)
	if err != nil {
		return splitProvenance{}, err
	}
	var carry, rawCur *orc.Cursor
	if from != nil {
		r, view, err := wh.OpenFileView(from.cachePath)
		if err != nil || !view.Stored || view.Version != from.cacheVersion || r.NumRows() != from.rows {
			return splitProvenance{}, fmt.Errorf("%w: part unreadable or changed", errCarryBroken)
		}
		if carry, err = r.NewCursor(tp.carried, nil, nil); err != nil {
			return splitProvenance{}, fmt.Errorf("%w: %v", errCarryBroken, err)
		}
		sp.rawVersion, sp.rows = from.rawVersion, from.rows
		for j, col := range tp.cols {
			if col.prev >= 0 {
				sp.colBytes[j] = from.colBytes[col.prev]
			}
		}
	}
	pure := true // the split's values are a function of the stored raw content alone
	if len(plan.groups) > 0 {
		r, view, err := wh.OpenFileView(raw.Name)
		if err != nil {
			return splitProvenance{}, err
		}
		if from != nil && (view.Version != from.rawVersion || r.NumRows() != from.rows) {
			return splitProvenance{}, fmt.Errorf("%w: raw file changed under it", errCarryBroken)
		}
		if rawCur, err = r.NewCursor(plan.readCols, nil, nil); err != nil {
			return splitProvenance{}, err
		}
		pure = view.Stored
		sp.rawVersion, sp.rows = view.Version, r.NumRows()
	}

	w := orc.NewWriter(tp.schema, wh.WriterOptions())
	for {
		if err := ctx.Err(); err != nil {
			return splitProvenance{}, err
		}
		n := 0
		if carry != nil {
			if n, err = carry.NextBatch(tp.carryVecs, populateBatchRows); err != nil {
				return splitProvenance{}, fmt.Errorf("%w: %v", errCarryBroken, err)
			}
		}
		if rawCur != nil {
			m, err := rawCur.NextBatch(plan.vecs, populateBatchRows)
			if err != nil {
				return splitProvenance{}, err
			}
			if carry != nil && m != n {
				return splitProvenance{}, fmt.Errorf("%w: rows out of step", errCarryBroken)
			}
			n = m
			failed := st.ParseErrors
			tp.extract(plan, n, sp.colBytes)
			if st.ParseErrors != failed {
				if from != nil {
					// Copied values were extracted clean; beside a malformed
					// document they would differ from a from-scratch populate.
					return splitProvenance{}, fmt.Errorf("%w: malformed document", errCarryBroken)
				}
				pure = false
			}
		}
		if n == 0 {
			break
		}
		if err := w.AppendColumns(tp.out, n); err != nil {
			return splitProvenance{}, err
		}
	}
	data, err := w.Finish()
	if err != nil {
		return splitProvenance{}, err
	}
	part, err := wh.AppendEncoded(CacheDB, tp.cacheTable, data)
	if err != nil {
		return splitProvenance{}, err
	}
	st.BytesWritten += part.Size
	if from != nil {
		st.SplitsRewritten++
	} else {
		st.SplitsExtracted++
	}
	if !pure {
		// Still the split's byte counts, but nothing to carry it by.
		return splitProvenance{colBytes: sp.colBytes}, nil
	}
	sp.cachePath, sp.cacheVersion = part.Name, part.Version
	return sp, nil
}

// extract runs the plan over the n rows its vectors hold, storing each
// column's values in tp.out and adding their sizes to colBytes. Each JSON
// column is read once per row.
func (tp *tablePopulate) extract(plan *extractPlan, n int, colBytes []int64) {
	st := tp.stats
	for gi := range plan.groups {
		g := &plan.groups[gi]
		for ri, src := range plan.vecs[gi][:n] {
			for _, j := range g.cols {
				tp.out[j][ri] = datum.NullOf(datum.TypeString)
			}
			if src.Null {
				continue
			}
			scanned := g.x.Extract(src.S)
			st.BytesScanned += int64(scanned)
			st.BytesSkipped += int64(len(src.S) - scanned)
			if g.x.Err() != nil {
				st.ParseErrors++
			}
			for k, j := range g.cols {
				if v, ok := g.x.Scalar(k); ok {
					tp.out[j][ri] = datum.Str(v)
					colBytes[j] += int64(len(v))
				}
			}
		}
	}
	st.RowsParsed += int64(n)
}

// ActiveCacheTable returns the current generation's cache table for a raw
// table, resolved through the registry ("" when nothing of that table is
// cached).
func (c *Cacher) ActiveCacheTable(db, table string) string {
	for _, e := range c.registry.Entries() {
		if e.Key.DB == db && e.Key.Table == table {
			return e.CacheTable
		}
	}
	return ""
}

// VerifyAlignment checks the §IV-C invariant for a cached raw table: the
// cache table has the same number of part files as the raw table and the
// i-th files have identical row counts. Tests and the daily cycle's sanity
// check call this.
func (c *Cacher) VerifyAlignment(db, table string) error {
	rawInfo, err := c.wh.Table(db, table)
	if err != nil {
		return err
	}
	active := c.ActiveCacheTable(db, table)
	if active == "" {
		return fmt.Errorf("core: no cached paths for %s.%s", db, table)
	}
	cacheInfo, err := c.wh.Table(CacheDB, active)
	if err != nil {
		return err
	}
	if len(rawInfo.Files) != len(cacheInfo.Files) {
		return fmt.Errorf("core: cache/raw file count mismatch: %d vs %d", len(cacheInfo.Files), len(rawInfo.Files))
	}
	for i := range rawInfo.Files {
		rr, err := c.wh.OpenFile(rawInfo.Files[i])
		if err != nil {
			return err
		}
		cr, err := c.wh.OpenFile(cacheInfo.Files[i])
		if err != nil {
			return err
		}
		if rr.NumRows() != cr.NumRows() {
			return fmt.Errorf("core: split %d row mismatch: raw %d vs cache %d", i, rr.NumRows(), cr.NumRows())
		}
	}
	return nil
}
