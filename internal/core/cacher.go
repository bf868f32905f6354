package core

import (
	"context"
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
// receives score-ranked MPJPs, links each split of the previous generation
// that still holds exactly them, extracts the rest from the raw tables, and
// writes cache tables whose part files align one-to-one with the raw
// tables' part files so the Value Combiner's paired readers can stitch rows
// positionally without a join (paper §IV-C). Between cycles it caches each
// part AppendRows lands in a table the serving generation covers (ingest).
type Cacher struct {
	wh       *warehouse.Warehouse
	registry *Registry
	// RowGroupRows matches the raw tables' row-group size so shared
	// skip-arrays line up row-for-row.
	RowGroupRows int
	// Log, when set, receives a debug record for each table that had a
	// previous generation and linked none of its splits, with the reasons.
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
	splitsC         [3]*obs.Counter // carried, extracted, ingested
	ingestFailuresC *obs.Counter
}

// CacheStats summarizes one population cycle. Each split is linked or
// extracted, so a generation's size is BytesWritten + BytesCarried, and a
// cycle that links nothing reads as the from-scratch populate, Dropped aside.
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
	// Every cache split is either linked whole from the previous generation
	// (carried) or extracted whole from the raw JSON.
	SplitsCarried   int
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
	for i, mode := range []string{"carried", "extracted", "ingested"} {
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
		c.splitsC[2].Add(int64(stats.SplitsExtracted))
		return
	}
	c.splitsC[0].Add(int64(stats.SplitsCarried))
	c.splitsC[1].Add(int64(stats.SplitsExtracted))
}

// PopulateCtx runs one caching cycle: it drops the cache tables no manifest
// names and builds a new generation holding the selected profiles in
// order. The paper empties and re-populates every midnight; here a split of a
// table whose selected paths are last night's, in the same order, is linked
// from the previous generation while its raw part is at the version that
// generation filed it under. Every other split is extracted whole from the
// raw JSON by populateSplit, in a single streaming pass per document and JSON
// column, and CacheStats meters the bytes it actually scanned. Either way the
// result is byte for byte what re-populating from the raw tables would have
// written (see Manifest).
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
	sp, err = tp.populateSplit(raw)
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

// populateBatchRows is how many rows a populate pass moves at a time.
const populateBatchRows = 256

// tablePopulate is the state of one populateTable or ingest call.
type tablePopulate struct {
	c *Cacher
	// ctx is the cycle's context; nil for an ingest, which nothing cancels.
	ctx        context.Context
	stats      *CacheStats
	cacheTable string
	schema     orc.Schema
	// keys are the selected paths of the table, one cache column each, in
	// order: the manifest's Keys. list extracts them.
	keys []pathkey.Key
	list []sqlengine.Extraction
	// The extraction and its batch are built by the first split that is
	// encoded (prepare), so a populate that links every split allocates none.
	// One extraction state and one raw cursor serve every split of the
	// table; populateSplit resets the one and re-aims the other per split.
	// The cursor decodes the file's values straight into vecs (documents as
	// views of the part file; orc.Writer encodes the extracted values into
	// the cache file's own bytes), and out holds one batch of the table being
	// written, column-wise, backed by one array.
	x        sqlengine.SplitExtraction
	cur      orc.Cursor
	readCols []string
	vecs     [][]datum.Datum
	out      [][]datum.Datum
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
	// A split is linked only from a table of exactly tonight's columns.
	var prevParts []dfs.FileInfo
	if prev != nil && slices.Equal(prev.Keys, tp.keys) {
		prevParts, _ = c.wh.Parts(CacheDB, prev.CacheTable)
	}

	// One cache file per raw file, in split order, each filed in the
	// manifest under the raw part and version it was built from.
	manifest := &Manifest{CacheTable: tp.cacheTable, Keys: tp.keys, Splits: make([]ManifestSplit, len(rawParts))}
	notLinked := map[string]int{} // reason → splits
	for i, raw := range rawParts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var sp ManifestSplit
		if from, why := linkable(prev, prevParts, raw); from != nil {
			sp, err = tp.linkSplit(from)
		} else {
			notLinked[why]++
			sp, err = tp.populateSplit(raw)
		}
		if err != nil {
			return nil, err
		}
		manifest.Splits[i] = sp
	}
	if prev != nil && stats.SplitsCarried == 0 && c.Log != nil {
		c.Log.Debug("no split linked from the previous cache generation",
			"table", key0.TableID(), "previous", prev.CacheTable, "reasons", fmt.Sprint(notLinked))
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
		tp.keys = append(tp.keys, key)
		tp.list = append(tp.list, sqlengine.Extraction{Column: key.Column, Path: cp})
		tp.schema.Columns = append(tp.schema.Columns, orc.Column{Name: key.Sanitized(), Type: datum.TypeString})
	}
	if len(tp.keys) == 0 {
		return nil
	}
	return tp
}

// prepare builds the extraction of every column and its batch on first use.
func (tp *tablePopulate) prepare() {
	if tp.out != nil {
		return
	}
	flat := make([]datum.Datum, len(tp.keys)*populateBatchRows)
	tp.out = make([][]datum.Datum, len(tp.keys))
	for j := range tp.out {
		tp.out[j] = flat[j*populateBatchRows : (j+1)*populateBatchRows]
	}
	x := sqlengine.CompileExtraction(nil, tp.list)
	tp.x, tp.readCols = x.Split(sqlengine.StreamBackend{}), x.Reads()
	for range tp.readCols {
		tp.vecs = append(tp.vecs, make([]datum.Datum, populateBatchRows))
	}
}

// err reports the cycle's cancellation; an ingest is never cancelled.
func (tp *tablePopulate) err() error {
	if tp.ctx == nil {
		return nil
	}
	return tp.ctx.Err()
}

// linkable returns the previous generation's split of raw part raw when it
// can be linked whole, and says why not when it cannot. prevParts is the
// previous table's listing, nil when that table is gone or held other
// columns. The manifest answers as it does for the Value Combiner: only a
// split filed under this part at its current version, whose cache part is
// still the version the manifest stored.
func linkable(prev *Manifest, prevParts []dfs.FileInfo, raw dfs.FileInfo) (*ManifestSplit, string) {
	if prevParts == nil {
		return nil, "columns differ or previous table gone"
	}
	sp := prev.split(raw.Name, raw.Version)
	switch {
	case sp == nil:
		return nil, "raw part not at a cached version"
	case !holdsPart(prevParts, sp.CachePath, sp.CacheVersion):
		return nil, "cache part changed"
	}
	return sp, ""
}

// holdsPart reports whether a sorted listing holds file name at version.
func holdsPart(parts []dfs.FileInfo, name string, version uint64) bool {
	i := sort.Search(len(parts), func(i int) bool { return parts[i].Name >= name })
	return i < len(parts) && parts[i].Name == name && parts[i].Version == version
}

// linkSplit links the previous generation's split from into the table
// whole: it holds tonight's columns, in order, built from the raw part's
// current version, so it is what populateSplit would write.
func (tp *tablePopulate) linkSplit(from *ManifestSplit) (ManifestSplit, error) {
	part, err := tp.c.wh.LinkPart(CacheDB, tp.cacheTable, from.CachePath)
	if err != nil {
		return ManifestSplit{}, err
	}
	tp.stats.SplitsCarried++
	tp.stats.BytesCarried += part.Size
	sp := *from
	sp.CachePath, sp.CacheVersion = part.Name, part.Version
	return sp, nil
}

// populateSplit is the populate kernel: it extracts every column of one raw
// part file's cache split from the raw JSON in one streaming pass per
// document, appends the split to the table and returns its manifest record.
// It is the only code that encodes a cache split: the cycle runs it for every
// split it cannot link, and ingest for every appended part.
func (tp *tablePopulate) populateSplit(raw dfs.FileInfo) (ManifestSplit, error) {
	wh, st := tp.c.wh, tp.stats
	tp.prepare()
	r, view, err := wh.OpenFileView(raw.Name)
	if err != nil {
		return ManifestSplit{}, err
	}
	if err := tp.cur.Reopen(r, tp.readCols, nil, nil); err != nil {
		return ManifestSplit{}, err
	}
	sp := ManifestSplit{RawPath: raw.Name, RawVersion: view.Version, Rows: r.NumRows(), ColBytes: make([]int64, len(tp.keys))}
	if !view.Stored {
		sp.RawVersion = 0 // values parsed out of a mangled read belong to no version
	}
	tp.x.Reset()

	w := orc.NewWriter(tp.schema, wh.WriterOptions())
	// AppendEncoded stores a copy of the file, so the scratch goes back once
	// it returns.
	defer w.Release()
	for {
		if err := tp.err(); err != nil {
			return ManifestSplit{}, err
		}
		n, err := tp.cur.NextBatch(tp.vecs, populateBatchRows)
		if err != nil {
			return ManifestSplit{}, err
		}
		if n == 0 {
			break
		}
		c, malformed := tp.x.Fill(tp.vecs, tp.out, n)
		st.RowsParsed += int64(n)
		st.BytesScanned += c.Bytes
		st.BytesSkipped += c.Skipped
		st.ParseErrors += malformed
		for j, vec := range tp.out {
			for _, v := range vec[:n] {
				if !v.Null {
					sp.ColBytes[j] += int64(len(v.S))
				}
			}
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
	st.SplitsExtracted++
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
