package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/jsonpath"
	"repro/internal/obs"
	"repro/internal/orc"
	"repro/internal/pathkey"
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
// positionally without a join (paper §IV-C). Between cycles it caches each
// part AppendRows lands in a table the serving generation covers (ingest).
type Cacher struct {
	wh       *warehouse.Warehouse
	registry *Registry
	// RowGroupRows matches the raw tables' row-group size so shared
	// skip-arrays line up row-for-row.
	RowGroupRows int
	// Log, when set, receives a debug record for each table whose previous
	// generation could have been carried forward and was not, with the reasons.
	Log *slog.Logger

	// generation numbers each population cycle; cache tables carry it in
	// their name so generations never collide.
	generation atomic.Int64

	// ingestMu serialises ingests, and DropRetired against them, so an ingest
	// never writes into a table being dropped and two appends to one table
	// both extend its manifest.
	ingestMu sync.Mutex

	// obs counters (nil until SetObs): population cycles and ingests publish
	// totals here so malformed documents are visible operationally.
	parseErrorsC    *obs.Counter
	bytesScannedC   *obs.Counter
	bytesSkippedC   *obs.Counter
	splitsC         [4]*obs.Counter // carried, rewritten, extracted, ingested
	ingestFailuresC *obs.Counter
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
	ParseErrors   int64 // malformed documents encountered (each path cached as extracted alone)
	TablesWritten int
	Dropped       int // cache tables no manifest names, deleted
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
// errors and scan volumes publish there after every population cycle and
// every ingest.
func (c *Cacher) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	c.parseErrorsC = r.Counter("cacher_parse_errors_total")
	c.bytesScannedC = r.Counter("cacher_parse_bytes_scanned_total")
	c.bytesSkippedC = r.Counter("cacher_parse_bytes_skipped_total")
	for i, mode := range []string{"carried", "rewritten", "extracted", "ingested"} {
		c.splitsC[i] = r.Counter("cacher_splits_total", obs.L{K: "mode", V: mode})
	}
	c.ingestFailuresC = r.Counter("cacher_ingest_failures_total")
}

// publish adds stats to the counters. The splits an ingest built count as
// ingested.
func (c *Cacher) publish(stats CacheStats, ingested bool) {
	if c.parseErrorsC == nil {
		return
	}
	c.parseErrorsC.Add(stats.ParseErrors)
	c.bytesScannedC.Add(stats.BytesScanned)
	c.bytesSkippedC.Add(stats.BytesSkipped)
	if ingested {
		c.splitsC[3].Add(int64(stats.SplitsExtracted))
		return
	}
	c.splitsC[0].Add(int64(stats.SplitsCarried))
	c.splitsC[1].Add(int64(stats.SplitsRewritten))
	c.splitsC[2].Add(int64(stats.SplitsExtracted))
}

// PopulateCtx runs one caching cycle: it drops the cache tables no manifest
// names and builds a new generation holding the selected profiles in
// order. The paper empties and re-populates every midnight; here a generation
// is an incremental function of the one before it — what is unchanged since
// (same raw file version, same path) is carried forward, and the result is
// byte for byte what re-populating from the raw tables would have written
// (see Manifest, populateSplit). What remains is extracted in a single
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

	// Delete the generation the PREVIOUS cycle displaced: no live query can
	// still reference it (its registry entries vanished a full cycle ago).
	// RunMidnightCycleCtx calls DropRetired itself (so the stage is timed
	// separately); this call is then a no-op, but keeps direct CacheSelected
	// users correct.
	stats.Dropped = c.DropRetired()
	gen := int(c.generation.Add(1))
	prev := c.registry.generation()

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
		stats    CacheStats
		manifest *Manifest
		err      error
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
			manifest, err := c.populateTable(ctx, byTable[id], gen, prev[id], &local)
			results[i] = tableResult{stats: local, manifest: manifest, err: err}
		}(i, id)
	}
	wg.Wait()
	var manifests []*Manifest
	var firstErr error
	for _, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if r.manifest != nil {
			manifests = append(manifests, r.manifest)
			stats.PathsCached += len(r.manifest.Keys)
			stats.TablesWritten++
		}
		stats.add(r.stats)
	}
	if firstErr != nil {
		// Abort: no manifest names this generation's tables, so the sweep
		// deletes them right away (a link dies with its name, the bytes it
		// shared stay with the previous generation) and leaves that one
		// serving, its manifests still in the registry for the next cycle to
		// carry from.
		c.DropRetired()
		return stats, firstErr
	}

	// Commit: swap the registry atomically. The displaced generation's
	// tables stay until the next cycle's sweep, so in-flight queries planned
	// against the old entries finish on intact files.
	c.registry.Swap(manifests)
	c.publish(stats, false)
	return stats, nil
}

// ingest is the append callback New installs on the warehouse. When a
// manifest serves the raw table and the part follows its splits (a recreated
// table reuses part names), it builds the part's cache split with the
// from-scratch populate into that manifest's cache table and swaps in the
// manifest with one more split. Nothing fails the append: an error is counted
// and logged and, like a lost swap, leaves the part to the fallback lane until
// the next cycle extracts it. Ingest is not held to the budget (DESIGN.md,
// "Extract at ingest").
func (c *Cacher) ingest(db, table string, raw dfs.FileInfo) {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	m := c.registry.generation()[pathkey.Key{DB: db, Table: table}.TableID()]
	if m == nil || !m.follows(raw.Name) {
		return
	}
	sp, stats, err := c.ingestSplit(m, raw)
	if err != nil {
		if c.ingestFailuresC != nil {
			c.ingestFailuresC.Inc()
		}
		if c.Log != nil {
			c.Log.Warn("ingest failed; the part stays uncovered until the next cycle",
				"table", db+"."+table, "part", raw.Name, "err", err)
		}
		return
	}
	c.publish(stats, true)
	c.registry.Replace(m, m.withSplit(sp))
}

// ingestSplit builds raw's cache split for m from scratch. A panic while
// building it, such as a faulted decode, is an error like any other.
func (c *Cacher) ingestSplit(m *Manifest, raw dfs.FileInfo) (sp ManifestSplit, stats CacheStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: ingest of %s panicked: %v", raw.Name, r)
		}
	}()
	// Ingest runs inside the append it extends, under no context: nothing
	// cancels it.
	tp := c.newTablePopulate(nil, m.CacheTable, m.Keys, &stats)
	sp, err = tp.populateSplit(raw, nil)
	return sp, stats, err
}

// retired lists the cache tables no serving manifest names: those a Swap
// displaced or Quarantine unserved, and an aborted cycle's. Nothing names
// such a table again. A table a populate is still building is not named yet
// either, so the sweep runs between populates.
func (c *Cacher) retired() []string {
	tables := c.wh.ListTables(CacheDB)
	named := make(map[string]bool)
	for _, m := range c.registry.generation() {
		named[m.CacheTable] = true
	}
	return slices.DeleteFunc(tables, func(t string) bool { return named[t] })
}

// DropRetired deletes every cache table no serving manifest names and
// returns how many it dropped. RunMidnightCycleCtx's retire stage runs it
// first, so a generation a commit displaced outlives that commit by one
// cycle (the paper's deferred deletion); PopulateCtx runs it at its start and
// on abort, and LoadState after it installs the manifests it kept.
func (c *Cacher) DropRetired() int {
	tables := c.retired()
	if len(tables) == 0 {
		return 0
	}
	// An ingest that read a manifest before it was displaced may still be
	// writing into its table.
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	dropped := 0
	for _, t := range tables {
		if err := c.wh.DropTable(CacheDB, t); err == nil {
			dropped++
		}
	}
	return dropped
}

// Generation returns the number of population cycles run so far.
func (c *Cacher) Generation() int { return int(c.generation.Load()) }

// PendingDrops returns how many cache tables the next DropRetired deletes.
func (c *Cacher) PendingDrops() int { return len(c.retired()) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

// extractPlan reads a set of cache columns out of the raw JSON through the
// engine's batch extraction, which scans a document once however many paths
// it feeds. readCols is empty when no column is extracted.
type extractPlan struct {
	x        sqlengine.SplitExtraction
	readCols []string        // the raw columns to open
	vecs     [][]datum.Datum // what the raw cursor decodes into
	out      [][]datum.Datum // the extracted columns' vectors in tablePopulate.out
}

// tablePopulate is the state of one populateTable or ingest call.
type tablePopulate struct {
	c *Cacher
	// ctx is the cycle's context; nil for an ingest, which nothing cancels.
	ctx        context.Context
	stats      *CacheStats
	cacheTable string
	schema     orc.Schema
	cols       []cacheColumn
	// out holds one batch of the table being written, column-wise, backed by
	// one array: copied columns are decoded into it, extracted ones stored.
	// It is allocated by the first split that is encoded (vectors), so a
	// populate that links every split allocates none.
	out [][]datum.Datum
	// sameCols: the previous table held exactly these columns in this order,
	// so an unchanged split is linked rather than rewritten.
	sameCols bool
	// carried lists the columns the previous table holds; carryVecs are their
	// vectors in out, in the same order, handed to the previous part's
	// cursor.
	carried   []string
	carryVecs [][]datum.Datum
	// all extracts every column, missing only those the previous table lacks
	// (no groups when it holds them all). Both are built on first use.
	all, missing *extractPlan
}

// populateTable builds one raw table's cache table of generation gen and
// returns its manifest. The manifest is NOT installed here — PopulateCtx
// commits all tables' manifests in one atomic swap after every table
// succeeds. prev is the previous generation's manifest of the same raw table,
// nil when there is none.
func (c *Cacher) populateTable(ctx context.Context, group []*PathProfile, gen int, prev *Manifest, stats *CacheStats) (*Manifest, error) {
	key0 := group[0].Key
	rawParts, err := c.wh.Parts(key0.DB, key0.Table)
	if err != nil {
		return nil, err
	}
	keys := make([]pathkey.Key, len(group))
	for i, p := range group {
		keys[i] = p.Key
	}
	tp := c.newTablePopulate(ctx, generationTableName(key0.DB, key0.Table, gen), keys, stats)
	if tp == nil {
		return nil, nil
	}
	if c.wh.TableExists(CacheDB, tp.cacheTable) {
		if err := c.wh.DropTable(CacheDB, tp.cacheTable); err != nil {
			return nil, err
		}
	}
	if err := c.wh.CreateTable(CacheDB, tp.cacheTable, tp.schema); err != nil {
		return nil, err
	}
	prevParts := tp.matchPrevious(prev)

	// One cache file per raw file, in split order, each filed in the
	// manifest under the raw part and version it was built from.
	manifest := &Manifest{CacheTable: tp.cacheTable, Splits: make([]ManifestSplit, len(rawParts))}
	for _, col := range tp.cols {
		manifest.Keys = append(manifest.Keys, col.key)
	}
	notCarried := map[string]int{} // reason → splits
	for i, raw := range rawParts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var from *ManifestSplit
		if prev != nil {
			var why string
			if from, why = tp.carriable(prev, prevParts, raw); from == nil {
				notCarried[why]++
			}
		}
		before := *stats
		sp, err := tp.populateSplit(raw, from)
		if from != nil && errors.Is(err, errCarryBroken) {
			// Nothing was appended; the stats describe the split as built.
			notCarried[err.Error()]++
			*stats = before
			sp, err = tp.populateSplit(raw, nil)
		}
		if err != nil {
			return nil, err
		}
		manifest.Splits[i] = sp
	}
	if prev != nil && stats.SplitsCarried+stats.SplitsRewritten == 0 && c.Log != nil {
		c.Log.Debug("nothing carried from the previous cache generation",
			"table", key0.TableID(), "previous", prev.CacheTable, "reasons", fmt.Sprint(notCarried))
	}
	return manifest, nil
}

// newTablePopulate compiles keys into the columns of cache table cacheTable:
// one STRING column per path, named column__path (paper's cache-field
// naming). A path that does not compile is left out; nil means none did.
func (c *Cacher) newTablePopulate(ctx context.Context, cacheTable string, keys []pathkey.Key, stats *CacheStats) *tablePopulate {
	tp := &tablePopulate{c: c, ctx: ctx, stats: stats, cacheTable: cacheTable}
	for _, key := range keys {
		cp, err := jsonpath.Compile(key.Path)
		if err != nil {
			continue
		}
		col := cacheColumn{key: key, path: cp, name: key.Sanitized(), prev: -1}
		tp.cols = append(tp.cols, col)
		tp.schema.Columns = append(tp.schema.Columns, orc.Column{Name: col.name, Type: datum.TypeString})
	}
	if len(tp.cols) == 0 {
		return nil
	}
	return tp
}

// vectors allocates out and carryVecs on first use: the batch a split is
// encoded from, which a linked split never needs.
func (tp *tablePopulate) vectors() {
	if tp.out != nil {
		return
	}
	flat := make([]datum.Datum, len(tp.cols)*populateBatchRows)
	tp.out = make([][]datum.Datum, len(tp.cols))
	for j, col := range tp.cols {
		tp.out[j] = flat[j*populateBatchRows : (j+1)*populateBatchRows]
		if col.prev >= 0 {
			tp.carryVecs = append(tp.carryVecs, tp.out[j])
		}
	}
}

// err reports the cycle's cancellation; an ingest is never cancelled.
func (tp *tablePopulate) err() error {
	if tp.ctx == nil {
		return nil
	}
	return tp.ctx.Err()
}

// matchPrevious lines tonight's columns up with the previous generation's
// table and returns that table's part files (nil when it is gone).
func (tp *tablePopulate) matchPrevious(prev *Manifest) []dfs.FileInfo {
	if prev == nil {
		return nil
	}
	parts, err := tp.c.wh.Parts(CacheDB, prev.CacheTable)
	if err != nil {
		return nil
	}
	// Two paths can sanitize to one column name; such a column is never
	// copied, since a cursor finds columns by name.
	named := map[string]int{}
	for _, key := range prev.Keys {
		named[key.Sanitized()]++
	}
	tp.sameCols = len(prev.Keys) == len(tp.cols)
	for j := range tp.cols {
		col := &tp.cols[j]
		for k, key := range prev.Keys {
			if key == col.key && named[col.name] == 1 {
				col.prev = k
			}
		}
		if col.prev != j {
			tp.sameCols = false
		}
		if col.prev >= 0 {
			tp.carried = append(tp.carried, col.name)
		}
	}
	return parts
}

// carriable decides whether raw part raw can be built from the previous
// generation's split of it, and says why not when it cannot. The manifest
// answers as it does for the Value Combiner: only a split filed under this
// part at its current version.
func (tp *tablePopulate) carriable(prev *Manifest, prevParts []dfs.FileInfo, raw dfs.FileInfo) (*ManifestSplit, string) {
	sp := prev.split(raw.Name, raw.Version)
	switch {
	case sp == nil:
		return nil, "raw part not at a cached version"
	case !holdsPart(prevParts, sp.CachePath, sp.CacheVersion):
		return nil, "cache part changed"
	case len(tp.carried) == 0:
		return nil, "columns differ"
	}
	return sp, ""
}

// holdsPart reports whether a sorted listing holds file name at version.
func holdsPart(parts []dfs.FileInfo, name string, version uint64) bool {
	i := sort.Search(len(parts), func(i int) bool { return parts[i].Name >= name })
	return i < len(parts) && parts[i].Name == name && parts[i].Version == version
}

// plan returns the extraction plan for every column (missingOnly false) or
// for the columns the previous table lacks.
func (tp *tablePopulate) plan(missingOnly bool) *extractPlan {
	slot := &tp.all
	if missingOnly {
		slot = &tp.missing
	}
	if *slot != nil {
		return *slot
	}
	p := &extractPlan{out: make([][]datum.Datum, 0, len(tp.cols))}
	list := make([]sqlengine.Extraction, 0, len(tp.cols))
	for j, col := range tp.cols {
		if missingOnly && col.prev >= 0 {
			continue
		}
		list = append(list, sqlengine.Extraction{Column: col.key.Column, Path: col.path})
		p.out = append(p.out, tp.out[j])
	}
	if x := sqlengine.CompileExtraction(nil, list); x != nil {
		// One extraction state serves every split of the table;
		// populateSplit resets it per split.
		p.x, p.readCols = x.Split(sqlengine.StreamBackend{}), x.Reads()
		for range p.readCols {
			// The cursor decodes the file's values straight into these
			// vectors (documents as views of the part file; orc.Writer
			// encodes the extracted values into the cache file's own bytes).
			p.vecs = append(p.vecs, make([]datum.Datum, populateBatchRows))
		}
	}
	*slot = p
	return p
}

// populateSplit is the populate kernel: it appends the cache split of one raw
// part file to the table and returns its manifest record. Each column is
// copied from the previous generation's split (from, nil when nothing can be
// carried) if that split holds it, and extracted from the raw JSON otherwise;
// the raw file is opened only if some column must be extracted, and a split
// whose columns are all there in the same order is linked, not rewritten.
// With from == nil this is the from-scratch populate, and the one ingest
// runs. An attempt that finds the carried side unusable returns
// errCarryBroken before anything is appended.
func (tp *tablePopulate) populateSplit(raw dfs.FileInfo, from *ManifestSplit) (ManifestSplit, error) {
	wh, st := tp.c.wh, tp.stats
	if from != nil && tp.sameCols {
		part, err := wh.LinkPart(CacheDB, tp.cacheTable, from.CachePath)
		if err != nil {
			return ManifestSplit{}, err
		}
		st.SplitsCarried++
		st.BytesCarried += part.Size
		sp := *from
		sp.CachePath, sp.CacheVersion = part.Name, part.Version
		return sp, nil
	}

	sp := ManifestSplit{RawPath: raw.Name, ColBytes: make([]int64, len(tp.cols))}
	tp.vectors()
	plan := tp.plan(from != nil)
	var carry, rawCur *orc.Cursor
	if from != nil {
		r, view, err := wh.OpenFileView(from.CachePath)
		if err != nil || !view.Stored || view.Version != from.CacheVersion || r.NumRows() != from.Rows {
			return ManifestSplit{}, fmt.Errorf("%w: part unreadable or changed", errCarryBroken)
		}
		if carry, err = r.NewCursor(tp.carried, nil, nil); err != nil {
			return ManifestSplit{}, fmt.Errorf("%w: %v", errCarryBroken, err)
		}
		sp.RawVersion, sp.Rows = from.RawVersion, from.Rows
		for j, col := range tp.cols {
			if col.prev >= 0 {
				sp.ColBytes[j] = from.ColBytes[col.prev]
			}
		}
	}
	if len(plan.readCols) > 0 {
		r, view, err := wh.OpenFileView(raw.Name)
		if err != nil {
			return ManifestSplit{}, err
		}
		if from != nil && (view.Version != from.RawVersion || r.NumRows() != from.Rows) {
			return ManifestSplit{}, fmt.Errorf("%w: raw file changed under it", errCarryBroken)
		}
		if rawCur, err = r.NewCursor(plan.readCols, nil, nil); err != nil {
			return ManifestSplit{}, err
		}
		sp.RawVersion, sp.Rows = view.Version, r.NumRows()
		if !view.Stored {
			sp.RawVersion = 0 // values parsed out of a mangled read belong to no version
		}
		plan.x.Reset()
	}

	w := orc.NewWriter(tp.schema, wh.WriterOptions())
	// AppendEncoded stores a copy of the file, so the scratch goes back once
	// it returns.
	defer w.Release()
	for {
		if err := tp.err(); err != nil {
			return ManifestSplit{}, err
		}
		n := 0
		if carry != nil {
			var err error
			if n, err = carry.NextBatch(tp.carryVecs, populateBatchRows); err != nil {
				return ManifestSplit{}, fmt.Errorf("%w: %v", errCarryBroken, err)
			}
		}
		if rawCur != nil {
			m, err := rawCur.NextBatch(plan.vecs, populateBatchRows)
			if err != nil {
				return ManifestSplit{}, err
			}
			if carry != nil && m != n {
				return ManifestSplit{}, fmt.Errorf("%w: rows out of step", errCarryBroken)
			}
			n = m
			c, malformed := plan.x.Fill(plan.vecs, plan.out, n)
			st.RowsParsed += int64(n)
			st.BytesScanned += c.Bytes
			st.BytesSkipped += c.Skipped
			st.ParseErrors += malformed
			for j, col := range tp.cols {
				if from != nil && col.prev >= 0 {
					continue // copied, its bytes are the previous split's
				}
				for _, v := range tp.out[j][:n] {
					if !v.Null {
						sp.ColBytes[j] += int64(len(v.S))
					}
				}
			}
		}
		if n == 0 {
			break
		}
		if err := w.AppendColumns(tp.out, n); err != nil {
			return ManifestSplit{}, err
		}
	}
	data, err := w.Finish()
	if err != nil {
		return ManifestSplit{}, err
	}
	part, err := wh.AppendEncoded(CacheDB, tp.cacheTable, data)
	if err != nil {
		return ManifestSplit{}, err
	}
	st.BytesWritten += part.Size
	if from != nil {
		st.SplitsRewritten++
	} else {
		st.SplitsExtracted++
	}
	sp.CachePath, sp.CacheVersion = part.Name, part.Version
	return sp, nil
}

// ActiveCacheTable returns the current generation's cache table for a raw
// table, resolved through the registry ("" when nothing of that table is
// cached).
func (c *Cacher) ActiveCacheTable(db, table string) string {
	if m := c.registry.generation()[pathkey.Key{DB: db, Table: table}.TableID()]; m != nil {
		return m.CacheTable
	}
	return ""
}

// VerifyAlignment checks the §IV-C invariant for a cached raw table: the
// active manifest serves every raw part at its current version, and each
// part's cache part holds exactly its rows. Tests call this after a cycle.
func (c *Cacher) VerifyAlignment(db, table string) error {
	rawInfo, err := c.wh.Table(db, table)
	if err != nil {
		return err
	}
	mf := c.registry.generation()[pathkey.Key{DB: db, Table: table}.TableID()]
	if mf == nil {
		return fmt.Errorf("core: no cached paths for %s.%s", db, table)
	}
	for i, raw := range rawInfo.Files {
		sp := mf.split(raw, rawInfo.Versions[i])
		if sp == nil {
			return fmt.Errorf("core: split %d (%s) is not at a cached version", i, raw)
		}
		rr, err := c.wh.OpenFile(raw)
		if err != nil {
			return err
		}
		cr, err := c.wh.OpenFile(sp.CachePath)
		if err != nil {
			return err
		}
		if rr.NumRows() != cr.NumRows() || cr.NumRows() != sp.Rows {
			return fmt.Errorf("core: split %d row mismatch: raw %d, cache %d, manifest %d", i, rr.NumRows(), cr.NumRows(), sp.Rows)
		}
	}
	return nil
}
