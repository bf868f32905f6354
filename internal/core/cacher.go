package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/datum"
	"repro/internal/jsonpath"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/sqlengine"
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

	// mu guards generation and pendingDrop: queries, gauges and SaveState
	// read them while an online cycle or LoadState writes them.
	mu sync.Mutex
	// generation numbers each population cycle; cache tables carry it in
	// their name so generations never collide.
	generation int
	// pendingDrop lists the previous generation's tables, deleted at the
	// START of the next cycle so queries planned against the old registry
	// can finish against intact tables.
	pendingDrop [][2]string // (db, table)

	// obs counters (nil until SetObs): population cycles publish totals here
	// so malformed documents are visible operationally, not silently NULLed.
	parseErrorsC  *obs.Counter
	bytesScannedC *obs.Counter
	bytesSkippedC *obs.Counter
}

// CacheStats summarizes one population cycle.
type CacheStats struct {
	PathsCached   int
	RowsParsed    int64
	BytesWritten  int64
	BytesScanned  int64   // raw JSON bytes the population scan actually read
	BytesSkipped  int64   // raw JSON bytes the streaming extractor skipped
	ParseErrors   int64   // malformed documents encountered (values cached as NULL)
	ParseNsSpent  float64 // simulated pre-parsing cost (off-peak work)
	TablesWritten int
	Dropped       int // invalid cache tables deleted
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
}

// Populate runs one caching cycle: it drops invalid cache tables left from
// previous cycles, empties the cache, and re-populates it with the selected
// profiles in order (the paper empties and re-populates every midnight).
// The cost model rates account the off-peak parsing work: each JSON column's
// cached paths are extracted in a single streaming pass per document, charged
// at the stream rate for the bytes actually scanned.
func (c *Cacher) Populate(selected []*PathProfile, cm sqlengine.CostModel) (CacheStats, error) {
	return c.PopulateCtx(context.Background(), selected, cm)
}

// PopulateCtx is Populate under a context. The cycle is crash-safe: the new
// generation's tables are built and registered nowhere until every table
// succeeds, then committed with one atomic registry swap. A failure (I/O
// error, worker panic, cancellation) at ANY point leaves the previous
// generation serving untouched; the partially built tables are deleted
// immediately, since no query can have planned against them.
func (c *Cacher) PopulateCtx(ctx context.Context, selected []*PathProfile, cm sqlengine.CostModel) (CacheStats, error) {
	var stats CacheStats

	// Delete the generation retired during the PREVIOUS cycle: no live
	// query can still reference it (its registry entries vanished a full
	// cycle ago). RunMidnightCycle calls DropRetired itself (so the stage
	// is timed separately); this call is then a no-op, but keeps direct
	// CacheSelected users correct.
	stats.Dropped = c.DropRetired()
	c.mu.Lock()
	c.generation++
	gen := c.generation
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
			entries, err := c.populateTable(ctx, byTable[id], gen, &local, cm)
			results[i] = tableResult{stats: local, entries: entries, err: err}
		}(i, id)
	}
	wg.Wait()
	var newEntries []*CacheEntry
	var firstErr error
	for _, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		newEntries = append(newEntries, r.entries...)
		stats.PathsCached += len(r.entries)
		stats.RowsParsed += r.stats.RowsParsed
		stats.BytesWritten += r.stats.BytesWritten
		stats.BytesScanned += r.stats.BytesScanned
		stats.BytesSkipped += r.stats.BytesSkipped
		stats.ParseErrors += r.stats.ParseErrors
		stats.ParseNsSpent += r.stats.ParseNsSpent
		stats.TablesWritten++
	}
	if firstErr != nil {
		// Abort: delete this generation's tables right away (nothing
		// referenced them) and leave the previous generation serving.
		c.dropGeneration(tableIDs, gen)
		return stats, firstErr
	}

	// Commit: swap the registry atomically, then queue the displaced
	// generation's tables for deferred deletion so in-flight queries
	// planned against the old entries finish on intact files. A new
	// generation also lifts any quarantine — the bad tables are gone.
	old := c.registry.Swap(newEntries)
	c.registry.ClearQuarantine()
	retired := map[[2]string]bool{}
	for _, e := range old {
		retired[[2]string{e.CacheDB, e.CacheTable}] = true
	}
	c.mu.Lock()
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
// previous cycle and returns how many were dropped. Populate runs it
// implicitly; RunMidnightCycle calls it explicitly first so the
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

// populateTable caches one raw table's selected paths and returns the
// registry entries for them. Entries are NOT installed here — PopulateCtx
// commits all tables' entries in one atomic swap after every table succeeds.
func (c *Cacher) populateTable(ctx context.Context, group []*PathProfile, gen int, stats *CacheStats, cm sqlengine.CostModel) ([]*CacheEntry, error) {
	key0 := group[0].Key
	rawInfo, err := c.wh.Table(key0.DB, key0.Table)
	if err != nil {
		return nil, err
	}
	// Compile the paths and define the cache schema: one STRING column per
	// path, named column__path (paper's cache-field naming).
	type cachedPath struct {
		prof *PathProfile
		path *jsonpath.Path
		col  string
	}
	var paths []cachedPath
	schema := orc.Schema{}
	for _, p := range group {
		cp, err := jsonpath.Compile(p.Key.Path)
		if err != nil {
			continue
		}
		col := p.Key.Sanitized()
		paths = append(paths, cachedPath{prof: p, path: cp, col: col})
		schema.Columns = append(schema.Columns, orc.Column{Name: col, Type: datum.TypeString})
	}
	if len(paths) == 0 {
		return nil, nil
	}

	cacheTable := generationTableName(key0.DB, key0.Table, gen)
	if c.wh.TableExists(CacheDB, cacheTable) {
		if err := c.wh.DropTable(CacheDB, cacheTable); err != nil {
			return nil, err
		}
	}
	if err := c.wh.CreateTable(CacheDB, cacheTable, schema); err != nil {
		return nil, err
	}

	// Which raw columns do we need? One JSON column may serve many paths.
	neededCols := map[string]bool{}
	for _, p := range paths {
		neededCols[p.prof.Key.Column] = true
	}
	var readCols []string
	for name := range neededCols {
		readCols = append(readCols, name)
	}
	sort.Strings(readCols)
	colPos := map[string]int{}
	for i, name := range readCols {
		colPos[name] = i
	}

	// Group paths per raw column: the whole group extracts in one forward
	// pass over the document.
	type colPlan struct {
		pos      int   // index into readCols / vecs
		pathIdxs []int // indexes into paths, in extractor path order
		x        *jsonpath.Extractor
	}
	plans := make([]*colPlan, len(readCols))
	for pi, p := range paths {
		ci := colPos[p.prof.Key.Column]
		if plans[ci] == nil {
			plans[ci] = &colPlan{pos: ci}
		}
		plans[ci].pathIdxs = append(plans[ci].pathIdxs, pi)
	}
	for _, cp := range plans {
		compiled := make([]*jsonpath.Path, len(cp.pathIdxs))
		for k, pi := range cp.pathIdxs {
			compiled[k] = paths[pi].path
		}
		set, err := jsonpath.NewPathSet(compiled...)
		if err != nil {
			return nil, err
		}
		cp.x = jsonpath.NewExtractor(set)
	}

	perPathBytes := make([]int64, len(paths))

	// Batch read scratch: the cursor decodes the file's values straight into
	// these vectors (documents as views of the part file; the extractor
	// copies what it returns, so nothing written to the cache aliases it).
	const populateBatchRows = 1024
	vecs := make([][]datum.Datum, len(readCols))
	for i := range vecs {
		vecs[i] = make([]datum.Datum, populateBatchRows)
	}

	// One cache file per raw file, in split order: this is the alignment
	// invariant the Value Combiner depends on.
	for _, file := range rawInfo.Files {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := c.wh.OpenFile(file)
		if err != nil {
			return nil, err
		}
		cur, err := r.NewCursor(readCols, nil, nil)
		if err != nil {
			return nil, err
		}
		var rows [][]datum.Datum
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n, err := cur.NextBatch(vecs, populateBatchRows)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
			// Each JSON column is read once per row.
			for ri := 0; ri < n; ri++ {
				out := make([]datum.Datum, len(paths))
				for _, cp := range plans {
					src := vecs[cp.pos][ri]
					for _, pi := range cp.pathIdxs {
						out[pi] = datum.NullOf(datum.TypeString)
					}
					if src.Null {
						continue
					}
					scanned := cp.x.Extract(src.S)
					stats.BytesScanned += int64(scanned)
					stats.BytesSkipped += int64(len(src.S) - scanned)
					stats.ParseNsSpent += float64(scanned) * cm.ParseNsPerByteStream
					if cp.x.Err() != nil {
						stats.ParseErrors++
					}
					for k, pi := range cp.pathIdxs {
						if v, ok := cp.x.Scalar(k); ok {
							out[pi] = datum.Str(v)
							perPathBytes[pi] += int64(len(v))
						}
					}
				}
				rows = append(rows, out)
				stats.RowsParsed++
			}
		}
		if _, err := c.wh.AppendRows(CacheDB, cacheTable, rows); err != nil {
			return nil, err
		}
	}

	cachedAt := c.wh.Clock().Now()
	totalBytes, err := c.wh.TotalBytes(CacheDB, cacheTable)
	if err == nil {
		stats.BytesWritten += totalBytes
	}
	entries := make([]*CacheEntry, 0, len(paths))
	for pi, p := range paths {
		entries = append(entries, &CacheEntry{
			Key:         p.prof.Key,
			CacheDB:     CacheDB,
			CacheTable:  cacheTable,
			CacheColumn: p.col,
			CachedAt:    cachedAt,
			Bytes:       perPathBytes[pi],
		})
	}
	return entries, nil
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
