// Package dfs simulates the reliable append-only distributed file system
// (HDFS-like) that the paper's warehouse stores tables on.
//
// The simulation keeps file contents in memory but reproduces the structural
// properties the caching design depends on:
//
//   - files are append-only: bytes are added, never rewritten (the paper
//     reports only 2% of tables ever modify previously appended data, and
//     Maxson invalidates caches when they do);
//   - stored content is immutable and versioned: every mutation gives the
//     file a new version, and once bytes are stored they are never written
//     again, so ReadView can hand readers the stored bytes themselves;
//   - every file records its last modification time from an injectable
//     clock, which drives cache-validity decisions;
//   - a file is one input split: ListFiles enumerates a directory in sorted
//     name order, so the i-th cache file aligns with the i-th raw file.
//
// Read throughput is metered so the query engine's cost model can account
// for I/O separately from parsing and compute.
package dfs

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/simtime"
)

// Common errors.
var (
	ErrNotFound = errors.New("dfs: file not found")
	ErrExists   = errors.New("dfs: file already exists")
)

// IOStats counts bytes moved through the file system. BytesRead and Opens
// count what readers were handed: one open and the length of the returned
// range per ReadView/ReadFile call. Metadata calls (List, ListFiles,
// Size, ModTime) count nothing.
type IOStats struct {
	BytesRead    int64
	BytesWritten int64
	FilesCreated int64
	Opens        int64
}

// FS is an in-memory append-only file system. All methods are safe for
// concurrent use.
type FS struct {
	mu    sync.RWMutex
	files map[string]*file
	clock simtime.Clock
	stats IOStats
	// gen counts the mutations of the file system: every call that stores,
	// renames, links or deletes a file adds one, under mu. A file's version is
	// the generation its content was stored at, so versions are unique across
	// the whole file system and a file deleted and created again under the
	// same name never repeats one.
	gen atomic.Uint64
	// inj is the optional fault injector. It is consulted before each
	// open/append (Fail) and on each read's returned bytes (Transform),
	// always outside mu so injected latency never stalls the lock.
	inj atomic.Pointer[fault.Injector]
}

// file is one stored file. Immutability invariant: once data[i] has been
// stored it is never written again. WriteFile installs a fresh slice, and
// Append only ever writes at or beyond the previous len(data) — into spare
// capacity no view can reach (views are capacity-capped) or into a fresh
// array. Every mutation also takes a new version, so a version names one
// exact byte content. Link relies on the same invariant to let two files
// share one data array: it caps the second file's capacity as it would a
// view's, so the files' appends can never meet.
type file struct {
	data    []byte
	modTime time.Time
	version uint64
}

// nextVersion moves the file system to its next generation and returns it as
// the version of the content being stored; the caller holds mu for writing.
func (f *FS) nextVersion() uint64 { return f.gen.Add(1) }

// Generation identifies the file system's current state: it changes with every
// mutation (a file stored, appended to, renamed, linked or deleted) and with
// nothing else, so two equal readings bracket an interval in which every
// listing, size and version stayed the same. A caller that keeps something
// derived from a listing reads Generation before the listing and serves what it
// kept only while Generation still returns that value.
func (f *FS) Generation() uint64 { return f.gen.Load() }

// Option configures an FS.
type Option func(*FS)

// WithClock sets the clock used for modification times.
func WithClock(c simtime.Clock) Option {
	return func(f *FS) {
		if c != nil {
			f.clock = c
		}
	}
}

// New returns an empty file system.
func New(opts ...Option) *FS {
	f := &FS{
		files: make(map[string]*file),
		clock: simtime.Real{},
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// SetInjector installs (or, with nil, removes) a fault injector. All
// subsequent opens, reads, and appends consult it.
func (f *FS) SetInjector(in *fault.Injector) { f.inj.Store(in) }

// Injector returns the installed fault injector (nil when none).
func (f *FS) Injector() *fault.Injector { return f.inj.Load() }

// Stats returns a snapshot of I/O statistics.
func (f *FS) Stats() IOStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.stats
}

// ResetStats zeroes the I/O statistics.
func (f *FS) ResetStats() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = IOStats{}
}

func clean(p string) string {
	return path.Clean("/" + strings.TrimPrefix(p, "/"))
}

// Create creates an empty file. It fails if the file exists.
func (f *FS) Create(name string) error {
	name = clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	f.files[name] = &file{modTime: f.clock.Now(), version: f.nextVersion()}
	f.stats.FilesCreated++
	return nil
}

// WriteFile creates name with the given contents, replacing any existing
// file. It counts as a modification.
func (f *FS) WriteFile(name string, data []byte) error {
	_, err := f.WriteFileVersion(name, data)
	return err
}

// WriteFileVersion is WriteFile returning the version the new content was
// stored under, so a writer can file metadata about exactly those bytes.
func (f *FS) WriteFileVersion(name string, data []byte) (uint64, error) {
	name = clean(name)
	if err := f.inj.Load().Fail(fault.OpAppend, name); err != nil {
		return 0, err
	}
	// A private copy, made outside the lock: the caller keeps data, and
	// views of a replaced file keep reading the slice they were given.
	cp := make([]byte, len(data))
	copy(cp, data)
	f.mu.Lock()
	defer f.mu.Unlock()
	fl := &file{data: cp, modTime: f.clock.Now(), version: f.nextVersion()}
	f.files[name] = fl
	f.stats.FilesCreated++
	f.stats.BytesWritten += int64(len(data))
	return fl.version, nil
}

// WriteFileAtomic writes data to a temporary file and renames it over name,
// so a failure mid-write (including an injected one) can never leave a torn
// final file: name either keeps its old contents or holds the new ones.
func (f *FS) WriteFileAtomic(name string, data []byte) error {
	name = clean(name)
	tmp := name + ".tmp"
	if err := f.WriteFile(tmp, data); err != nil {
		return err
	}
	return f.Rename(tmp, name)
}

// Rename atomically moves old to new, replacing any existing file at new.
// The content under the new name takes a new version.
func (f *FS) Rename(oldName, newName string) error {
	oldName, newName = clean(oldName), clean(newName)
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldName)
	}
	delete(f.files, oldName)
	fl.version = f.nextVersion()
	f.files[newName] = fl
	return nil
}

// Link gives the content stored at src a second name, dst, replacing any file
// there. No byte is copied: the two names share the stored bytes, which the
// immutability invariant (see file) makes sound — nothing ever writes them
// again, so neither name can observe the other being appended to, replaced or
// deleted. dst takes a fresh version like every other mutation; the returned
// srcVersion names the content the link was taken from.
func (f *FS) Link(src, dst string) (srcVersion uint64, linked FileInfo, err error) {
	src, dst = clean(src), clean(dst)
	if err := f.inj.Load().Fail(fault.OpAppend, dst); err != nil {
		return 0, FileInfo{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[src]
	if !ok {
		return 0, FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, src)
	}
	// Capacity-capped, so an Append to dst reallocates rather than writing
	// into spare capacity it would share with src.
	shared := fl.data[:len(fl.data):len(fl.data)]
	nf := &file{data: shared, modTime: f.clock.Now(), version: f.nextVersion()}
	f.files[dst] = nf
	f.stats.FilesCreated++
	return fl.version, FileInfo{Name: dst, Size: int64(len(shared)), Version: nf.version}, nil
}

// Append appends data to an existing file, updating its modification time.
func (f *FS) Append(name string, data []byte) error {
	name = clean(name)
	if err := f.inj.Load().Fail(fault.OpAppend, name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	// append writes only at or beyond len(fl.data): handed-out views end at
	// the length they saw and cannot reach the new bytes (see file).
	fl.data = append(fl.data, data...)
	fl.modTime = f.clock.Now()
	fl.version = f.nextVersion()
	f.stats.BytesWritten += int64(len(data))
	return nil
}

// View is what ReadView hands a reader: one version of a file's content.
type View struct {
	// Data is read-only and capacity-capped. When Stored is true it is the
	// file system's own bytes, shared with every other reader of the version.
	Data []byte
	// Version names the stored content the read was served from.
	Version uint64
	// Stored reports that Data is exactly that content. It is false when the
	// fault injector substituted a corrupted private copy or a truncated
	// slice, so nothing derived from Data may be filed under Version.
	Stored bool
}

// ReadView returns the file's stored bytes without copying them, plus the
// version they belong to. The caller must not modify View.Data; the file
// system never does either (see file), so the view stays valid and unchanged
// however the file is later appended to, replaced, renamed or deleted.
func (f *FS) ReadView(name string) (View, error) {
	name = clean(name)
	in := f.inj.Load()
	if err := in.Fail(fault.OpOpen, name); err != nil {
		return View{}, err
	}
	f.mu.Lock()
	fl, ok := f.files[name]
	if !ok {
		f.mu.Unlock()
		return View{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	f.stats.BytesRead += int64(len(fl.data))
	f.stats.Opens++
	stored := fl.data[:len(fl.data):len(fl.data)]
	version := fl.version
	f.mu.Unlock()
	// The injector copies before corrupting and only re-slices for a short
	// read, so the stored bytes are never mangled; comparing what came back
	// with what went in tells whether the reader got them untouched.
	got, err := in.Transform(fault.OpRead, name, stored)
	if err != nil {
		return View{}, err
	}
	same := len(got) == len(stored) && (len(got) == 0 || &got[0] == &stored[0])
	return View{Data: got, Version: version, Stored: same}, nil
}

// ReadFile returns a private copy of the file's contents.
func (f *FS) ReadFile(name string) ([]byte, error) {
	v, err := f.ReadView(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(v.Data))
	copy(out, v.Data)
	return out, nil
}

// Size returns the file length in bytes.
func (f *FS) Size(name string) (int64, error) {
	name = clean(name)
	f.mu.RLock()
	defer f.mu.RUnlock()
	fl, ok := f.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(fl.data)), nil
}

// ModTime returns the file's last modification time.
func (f *FS) ModTime(name string) (time.Time, error) {
	name = clean(name)
	f.mu.RLock()
	defer f.mu.RUnlock()
	fl, ok := f.files[name]
	if !ok {
		return time.Time{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return fl.modTime, nil
}

// Exists reports whether the file exists.
func (f *FS) Exists(name string) bool {
	name = clean(name)
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.files[name]
	return ok
}

// Delete removes a file. Deleting a missing file is an error.
func (f *FS) Delete(name string) error {
	name = clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(f.files, name)
	f.gen.Add(1)
	return nil
}

// DeleteDir removes every file under the directory prefix and returns how
// many were removed.
func (f *FS) DeleteDir(dir string) int {
	prefix := clean(dir) + "/"
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for name := range f.files {
		if strings.HasPrefix(name, prefix) {
			delete(f.files, name)
			n++
		}
	}
	if n > 0 {
		f.gen.Add(1)
	}
	return n
}

// List returns the files directly or transitively under dir, sorted by name.
// The sorted order is the contract the Value Combiner's paired readers rely
// on: raw-table files and cache-table files enumerate in the same order.
func (f *FS) List(dir string) []string {
	prefix := clean(dir) + "/"
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []string
	for name := range f.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// FileInfo is one file's metadata as ListFiles reports it.
type FileInfo struct {
	Name    string
	Size    int64
	Version uint64
}

// ListFiles is List with each file's size and current version, read under
// one lock so the three agree. It touches no content and counts no I/O.
func (f *FS) ListFiles(dir string) []FileInfo {
	prefix := clean(dir) + "/"
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []FileInfo
	for name, fl := range f.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, FileInfo{Name: name, Size: int64(len(fl.data)), Version: fl.version})
		}
	}
	slices.SortFunc(out, func(a, b FileInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}
