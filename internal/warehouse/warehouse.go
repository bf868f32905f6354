// Package warehouse implements the Hive-like metastore and table storage
// the paper's queries run against: databases contain tables, a table is a
// directory of ORC part files on the distributed file system, JSON payloads
// are stored in STRING columns, and every part file carries the dfs version
// of its content, which Maxson's cache-validity check matches exactly.
//
// The metastore also keeps every part file's parsed ORC footer, filed under
// the dfs version of the bytes it was parsed from. Table() therefore answers
// from memory, and opening a file is a zero-copy dfs view plus a footer
// lookup: footer validation runs once per file version, not once per open.
//
// Data loading follows the production pattern from the paper's §II-B: new
// data arrives as whole part files appended to the table directory (daily
// loads), previously appended files are almost never rewritten, and each
// part file is treated as one input split so downstream cache files can
// align file-by-file.
package warehouse

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/orc"
	"repro/internal/simtime"
)

// Retry policy for transient read failures (flaky-datanode model). Only
// errors the fault layer marks transient are retried; real corruption and
// missing files fail immediately.
const (
	readRetries      = 3
	readRetryBackoff = time.Millisecond
)

// Common errors.
var (
	ErrNoSuchDatabase = errors.New("warehouse: no such database")
	ErrNoSuchTable    = errors.New("warehouse: no such table")
	ErrTableExists    = errors.New("warehouse: table already exists")
)

// Warehouse is the metastore plus its backing file system.
type Warehouse struct {
	fs    *dfs.FS
	clock simtime.Clock
	root  string

	mu     sync.RWMutex
	tables map[string]*tableMeta // key: db.table
	byDir  map[string]*tableMeta // the same tables by directory, for footerOf
	dbs    map[string]bool
	orcOpt orc.WriterOptions

	// retryNotify, when set, is called once per retried read so the engine
	// can meter I/O retries without the warehouse importing obs.
	retryNotify func()
	retrySleep  func(time.Duration)
	// appendNotify, when set, is called once per part AppendRows stores, so
	// the cache can extract it at ingest without the warehouse importing core.
	appendNotify func(db, table string, part dfs.FileInfo)
}

type tableMeta struct {
	db, name string
	schema   orc.Schema
	dir      string
	nextPart int
	// footers holds each part file's parsed footer and the dfs version of
	// the content it describes (guarded by Warehouse.mu). An entry is used
	// only while the file is still at that version. The map dies with the
	// tableMeta in DropTable, so a retired cache generation pins nothing.
	footers map[string]fileFooter // key: file path
	// snap is the last TableInfo Table built, kept for as long as the file
	// system stays at the generation it was built from.
	snap atomic.Pointer[TableInfo]
}

type fileFooter struct {
	version uint64
	footer  *orc.Footer
}

// Option configures a Warehouse.
type Option func(*Warehouse)

// WithClock sets the clock the warehouse hands out through Clock.
func WithClock(c simtime.Clock) Option {
	return func(w *Warehouse) {
		if c != nil {
			w.clock = c
		}
	}
}

// WithWriterOptions sets the ORC layout used for part files.
func WithWriterOptions(o orc.WriterOptions) Option {
	return func(w *Warehouse) { w.orcOpt = o }
}

// New creates a warehouse rooted at /warehouse on fs.
func New(fs *dfs.FS, opts ...Option) *Warehouse {
	w := &Warehouse{
		fs:     fs,
		clock:  simtime.Real{},
		root:   "/warehouse",
		tables: make(map[string]*tableMeta),
		byDir:  make(map[string]*tableMeta),
		dbs:    make(map[string]bool),
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// FS exposes the backing file system (read-mostly; the cacher writes its
// cache tables through the warehouse API instead).
func (w *Warehouse) FS() *dfs.FS { return w.fs }

// SetRetryNotify installs a callback fired once per retried transient read.
func (w *Warehouse) SetRetryNotify(f func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.retryNotify = f
}

// SetAppendNotify installs a callback AppendRows fires, synchronously and
// holding no warehouse lock, after it has stored a part: the daily load's new
// data, and nothing else. AppendEncoded, LinkPart and RewriteFile never fire
// it.
func (w *Warehouse) SetAppendNotify(f func(db, table string, part dfs.FileInfo)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendNotify = f
}

// SetRetrySleep overrides the backoff sleeper between read retries (tests).
func (w *Warehouse) SetRetrySleep(f func(time.Duration)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.retrySleep = f
}

// Clock returns the warehouse clock.
func (w *Warehouse) Clock() simtime.Clock { return w.clock }

// WriterOptions returns the ORC layout part files are written with.
func (w *Warehouse) WriterOptions() orc.WriterOptions { return w.orcOpt }

func key(db, table string) string { return db + "." + table }

// dirOf returns the directory part of a file path ("" when it has none).
func dirOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return ""
}

// CreateDatabase registers a database; creating it twice is a no-op.
func (w *Warehouse) CreateDatabase(db string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dbs[db] = true
}

// CreateTable registers a table with the given schema.
func (w *Warehouse) CreateTable(db, table string, schema orc.Schema) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.dbs[db] {
		return fmt.Errorf("%w: %s", ErrNoSuchDatabase, db)
	}
	k := key(db, table)
	if _, ok := w.tables[k]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, k)
	}
	tm := &tableMeta{
		db: db, name: table,
		schema:  schema,
		dir:     fmt.Sprintf("%s/%s/%s", w.root, db, table),
		footers: make(map[string]fileFooter),
	}
	w.tables[k] = tm
	w.byDir[tm.dir] = tm
	return nil
}

// DropTable removes a table, its files and its footers.
func (w *Warehouse) DropTable(db, table string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := key(db, table)
	tm, ok := w.tables[k]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, k)
	}
	w.fs.DeleteDir(tm.dir)
	delete(w.tables, k)
	delete(w.byDir, tm.dir)
	return nil
}

// TableExists reports whether the table is registered.
func (w *Warehouse) TableExists(db, table string) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, ok := w.tables[key(db, table)]
	return ok
}

// ListTables lists a database's tables sorted by name.
func (w *Warehouse) ListTables(db string) []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var out []string
	for _, tm := range w.tables {
		if tm.db == db {
			out = append(out, tm.name)
		}
	}
	sort.Strings(out)
	return out
}

// TableInfo is a read-only snapshot of table metadata. Table hands the same
// value to every caller until the file system changes, so it is shared: no
// field, and no element of Files or Versions, may be modified. It holds only
// what the table's registration (DB, Name, Schema, Dir) and the file system's
// state (Files, Versions, NumRows, Bytes) determine.
type TableInfo struct {
	DB     string
	Name   string
	Schema orc.Schema
	Dir    string
	Files  []string // part files, sorted: the split order
	// Versions holds each part file's dfs version, aligned with Files: a
	// part still at the version something was derived from is still the
	// content it was derived from.
	Versions []uint64
	NumRows  int64
	Bytes    int64 // total size of the part files

	// gen is the dfs generation read before the directory was listed.
	gen uint64
}

// Table returns a snapshot of table metadata (files sorted in split order).
// While the file system's generation has not moved since the last call it
// returns that call's value as is, without listing anything. Otherwise it
// lists the directory but reads no file: sizes come from the dfs listing and
// row counts from the footers the metastore keeps. Only a part file the
// metastore has no current footer for — one written behind its back — is
// opened, once per version; a snapshot missing such a part's row count
// (the open failed, or was served mangled bytes) is returned but not kept.
func (w *Warehouse) Table(db, table string) (*TableInfo, error) {
	w.mu.RLock()
	tm, ok := w.tables[key(db, table)]
	if !ok {
		w.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, key(db, table))
	}
	// The generation is read before the listing: a mutation that lands in
	// between leaves a snapshot filed under a generation already past, which
	// is rebuilt on the next call rather than served stale.
	gen := w.fs.Generation()
	if snap := tm.snap.Load(); snap != nil && snap.gen == gen {
		w.mu.RUnlock()
		return snap, nil
	}
	listed := w.fs.ListFiles(tm.dir)
	info := &TableInfo{
		DB: db, Name: table,
		Schema:   tm.schema,
		Dir:      tm.dir,
		Files:    make([]string, len(listed)),
		Versions: make([]uint64, len(listed)),
		gen:      gen,
	}
	var unknown []string
	for i, f := range listed {
		info.Files[i], info.Versions[i] = f.Name, f.Version
		info.Bytes += f.Size
		if ff, ok := tm.footers[f.Name]; ok && ff.version == f.Version {
			info.NumRows += ff.footer.NumRows()
		} else {
			unknown = append(unknown, f.Name)
		}
	}
	w.mu.RUnlock()
	resolved := true
	for _, f := range unknown {
		// An unreadable file counts no rows, as a scan would return none.
		r, view, err := w.OpenFileView(f)
		if err == nil {
			info.NumRows += r.NumRows()
		}
		resolved = resolved && err == nil && view.Stored
	}
	if resolved {
		tm.snap.Store(info)
	}
	return info, nil
}

// Parts lists the table's part files in split order with each one's size and
// dfs version, so a caller can tell whether a part is still the content it
// once read without opening it. It reads no file.
func (w *Warehouse) Parts(db, table string) ([]dfs.FileInfo, error) {
	tm, err := w.meta(db, table)
	if err != nil {
		return nil, err
	}
	return w.fs.ListFiles(tm.dir), nil
}

// AppendRows writes rows as a new part file of the table (the daily-load
// pattern) and returns the file path. It returns after the append callback
// (SetAppendNotify) has returned.
func (w *Warehouse) AppendRows(db, table string, rows [][]datum.Datum) (string, error) {
	tm, err := w.meta(db, table)
	if err != nil {
		return "", err
	}
	data, err := orc.WriteRows(tm.schema, rows, w.orcOpt)
	if err != nil {
		return "", err
	}
	part, err := w.appendPart(tm, data)
	if err != nil {
		return part.Name, err
	}
	w.mu.RLock()
	notify := w.appendNotify
	w.mu.RUnlock()
	if notify != nil {
		notify(db, table, part)
	}
	return part.Name, nil
}

// AppendEncoded is AppendRows for a part file the caller encoded itself (with
// the table's schema, which is checked, and WriterOptions): a writer fed
// column batches never has to hold its rows as slices.
func (w *Warehouse) AppendEncoded(db, table string, data []byte) (dfs.FileInfo, error) {
	tm, err := w.meta(db, table)
	if err != nil {
		return dfs.FileInfo{}, err
	}
	return w.appendPart(tm, data)
}

// LinkPart appends the part file stored at srcPath (of any table with the
// same schema) to the table as its next part without copying it: the new
// name shares the stored bytes (dfs.FS.Link) and the footer the metastore
// keeps for them. Dropping either table leaves the other's part intact.
func (w *Warehouse) LinkPart(db, table, srcPath string) (dfs.FileInfo, error) {
	tm, err := w.meta(db, table)
	if err != nil {
		return dfs.FileInfo{}, err
	}
	w.mu.Lock()
	path := tm.nextPartPath()
	var kept fileFooter
	if src := w.byDir[dirOf(srcPath)]; src != nil {
		kept = src.footers[srcPath]
	}
	w.mu.Unlock()
	srcVersion, part, err := w.fs.Link(srcPath, path)
	if err != nil {
		return dfs.FileInfo{}, err
	}
	footer := kept.footer
	if footer == nil || kept.version != srcVersion {
		// The metastore holds no footer of the linked content: read the link.
		var r *orc.Reader
		if r, err = w.OpenFile(path); err == nil {
			footer = r.Footer
		}
	}
	if err == nil {
		err = sameSchema(footer.Schema(), tm.schema)
	}
	if err != nil {
		// A refused part must not stay in the table's directory.
		return dfs.FileInfo{}, fmt.Errorf("warehouse: link %s into %s: %w", srcPath, key(db, table), errors.Join(err, w.fs.Delete(path)))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	tm.keepFooter(path, part.Version, footer)
	return part, nil
}

// meta looks a table up.
func (w *Warehouse) meta(db, table string) (*tableMeta, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	tm, ok := w.tables[key(db, table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, key(db, table))
	}
	return tm, nil
}

// nextPartPath reserves the table's next part-file name. The caller holds
// Warehouse.mu for writing.
func (tm *tableMeta) nextPartPath() string {
	part := tm.nextPart
	tm.nextPart++
	return fmt.Sprintf("%s/part-%05d.orc", tm.dir, part)
}

// appendPart stores an encoded part file under the table's next part name.
func (w *Warehouse) appendPart(tm *tableMeta, data []byte) (dfs.FileInfo, error) {
	w.mu.Lock()
	path := tm.nextPartPath()
	w.mu.Unlock()
	version, err := w.writePart(tm, path, data)
	return dfs.FileInfo{Name: path, Size: int64(len(data)), Version: version}, err
}

// sameSchema reports how a part file's schema departs from its table's.
func sameSchema(file, table orc.Schema) error {
	if len(file.Columns) != len(table.Columns) {
		return fmt.Errorf("part has %d columns, the table %d", len(file.Columns), len(table.Columns))
	}
	for i, c := range file.Columns {
		if c != table.Columns[i] {
			return fmt.Errorf("part column %d is %s %v, the table's %s %v", i, c.Name, c.Type, table.Columns[i].Name, table.Columns[i].Type)
		}
	}
	return nil
}

// writePart stores one encoded part file and files its footer in the
// metastore under the version the bytes were stored as, which it returns.
func (w *Warehouse) writePart(tm *tableMeta, path string, data []byte) (uint64, error) {
	footer, err := orc.ParseFooter(data)
	if err == nil {
		err = sameSchema(footer.Schema(), tm.schema)
	}
	if err != nil {
		return 0, fmt.Errorf("warehouse: write %s: %w", path, err)
	}
	version, err := w.fs.WriteFileVersion(path, data)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	tm.keepFooter(path, version, footer)
	return version, nil
}

// keepFooter files a footer unless one for a later version of the file is
// already there (two writers, or a reader that opened the older content).
// The caller holds Warehouse.mu for writing.
func (tm *tableMeta) keepFooter(path string, version uint64, footer *orc.Footer) {
	if tm.footers[path].version < version {
		tm.footers[path] = fileFooter{version: version, footer: footer}
	}
}

// RewriteFile replaces an existing part file's rows, modeling the rare
// "previously appended data was modified" event (2% of tables in the
// paper's study). The part takes a new dfs version, so nothing derived from
// the old content matches it any more.
func (w *Warehouse) RewriteFile(db, table, path string, rows [][]datum.Datum) error {
	tm, err := w.meta(db, table)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(path, tm.dir+"/") {
		return fmt.Errorf("warehouse: %s is not a file of %s", path, key(db, table))
	}
	if !w.fs.Exists(path) {
		return fmt.Errorf("warehouse: no such part file %s", path)
	}
	data, err := orc.WriteRows(tm.schema, rows, w.orcOpt)
	if err != nil {
		return err
	}
	_, err = w.writePart(tm, path, data)
	return err
}

// OpenFile opens one part file for reading.
func (w *Warehouse) OpenFile(path string) (*orc.Reader, error) {
	r, _, err := w.OpenFileView(path)
	return r, err
}

// OpenFileView is OpenFile that also hands back the dfs view the reader
// serves from, for a caller that files what it derives from the part under
// the version it read — which, like the metastore with footers, it may do
// only when view.Stored. The open absorbs up to readRetries transient
// failures with linear backoff. Permanent errors (missing file, corrupt
// footer) surface immediately; only faults the injection layer marks
// transient are retried, mirroring how an HDFS client retries a flaky
// datanode but not a lost block.
func (w *Warehouse) OpenFileView(path string) (*orc.Reader, dfs.View, error) {
	w.mu.RLock()
	notify, sleep := w.retryNotify, w.retrySleep
	w.mu.RUnlock()
	if sleep == nil {
		sleep = time.Sleep
	}
	var view dfs.View
	var err error
	for attempt := 0; ; attempt++ {
		view, err = w.fs.ReadView(path)
		if err == nil {
			break
		}
		if attempt >= readRetries || !fault.Transient(err) {
			return nil, dfs.View{}, err
		}
		if notify != nil {
			notify()
		}
		sleep(time.Duration(attempt+1) * readRetryBackoff)
	}
	footer, err := w.footerOf(path, view)
	if err != nil {
		return nil, dfs.View{}, fmt.Errorf("warehouse: open %s: %w", path, err)
	}
	r := footer.NewReader(view.Data)
	if inj := w.fs.Injector(); inj != nil {
		r.SetFaultHook(func() error { return inj.Fail(fault.OpDecode, path) })
	}
	return r, view, nil
}

// footerOf returns the footer of the bytes a read returned. The metastore's
// copy serves — and is filled — only when those bytes are the stored content
// of the version it is filed under. Bytes the fault injector mangled are
// parsed afresh every time, so a corrupt or short read fails validation
// exactly as it would with no footers kept, and never reaches the metastore.
func (w *Warehouse) footerOf(path string, view dfs.View) (*orc.Footer, error) {
	if !view.Stored {
		return orc.ParseFooter(view.Data)
	}
	w.mu.RLock()
	tm := w.byDir[dirOf(path)]
	var kept fileFooter
	if tm != nil {
		kept = tm.footers[path]
	}
	w.mu.RUnlock()
	if kept.footer != nil && kept.version == view.Version {
		return kept.footer, nil
	}
	footer, err := orc.ParseFooter(view.Data)
	if err != nil || tm == nil {
		return footer, err
	}
	w.mu.Lock()
	tm.keepFooter(path, view.Version, footer)
	w.mu.Unlock()
	return footer, nil
}

// ReadAll reads every row of selected columns across all part files, in
// split order. It exists for tests and small tools; the query engine
// streams per split instead.
func (w *Warehouse) ReadAll(db, table string, columns []string) ([][]datum.Datum, error) {
	info, err := w.Table(db, table)
	if err != nil {
		return nil, err
	}
	var out [][]datum.Datum
	for _, f := range info.Files {
		r, err := w.OpenFile(f)
		if err != nil {
			return nil, err
		}
		cur, err := r.NewCursor(columns, nil, nil)
		if err != nil {
			return nil, err
		}
		for {
			row, err := cur.Next()
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			out = append(out, row) // Next hands over a fresh slice per row
		}
	}
	return out, nil
}

// TotalBytes sums the sizes of a table's part files.
func (w *Warehouse) TotalBytes(db, table string) (int64, error) {
	info, err := w.Table(db, table)
	if err != nil {
		return 0, err
	}
	return info.Bytes, nil
}
