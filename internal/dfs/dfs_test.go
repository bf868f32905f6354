package dfs

import (
	"bytes"
	"errors"
	"path"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fault"
)

func TestCreateAppendRead(t *testing.T) {
	fs := New()
	if err := fs.Create("/db/t/part-0"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/db/t/part-0"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create error = %v, want ErrExists", err)
	}
	if err := fs.Append("/db/t/part-0", []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("db/t/part-0", []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/db/t/part-0")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Errorf("data = %q", data)
	}
	if err := fs.Append("/missing", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Append missing error = %v", err)
	}
	if _, err := fs.ReadFile("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadFile missing error = %v", err)
	}
}

func TestListSortedAndDelete(t *testing.T) {
	fs := New()
	for _, name := range []string{"/d/t/part-2", "/d/t/part-0", "/d/t/part-1", "/d/other/x"} {
		if err := fs.WriteFile(name, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/d/t")
	want := []string{"/d/t/part-0", "/d/t/part-1", "/d/t/part-2"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("List[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if err := fs.Delete("/d/t/part-1"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/t/part-1") {
		t.Error("deleted file still exists")
	}
	if err := fs.Delete("/d/t/part-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete error = %v", err)
	}
	if n := fs.DeleteDir("/d/t"); n != 2 {
		t.Errorf("DeleteDir removed %d, want 2", n)
	}
	if fs.Exists("/d/other/x") != true {
		t.Error("DeleteDir removed file outside prefix")
	}
}

func TestStatsAccounting(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadView("/f"); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.BytesWritten != 6 || st.BytesRead != 12 || st.FilesCreated != 1 || st.Opens != 2 {
		t.Errorf("stats = %+v", st)
	}
	fs.ResetStats()
	if fs.Stats() != (IOStats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("immutable")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/f")
	data[0] = 'X'
	again, _ := fs.ReadFile("/f")
	if string(again) != "immutable" {
		t.Error("ReadFile exposed internal buffer")
	}
}

// Property: append-only writes preserve all previously written bytes, and
// Size always equals the total bytes appended.
func TestQuickAppendOnly(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := New()
		if err := fs.Create("/f"); err != nil {
			return false
		}
		var want []byte
		for _, c := range chunks {
			if err := fs.Append("/f", c); err != nil {
				return false
			}
			want = append(want, c...)
		}
		got, err := fs.ReadFile("/f")
		if err != nil {
			return false
		}
		size, err := fs.Size("/f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, want) && size == int64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInjectorWiring(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/f", []byte("hello world")); err != nil {
		t.Fatal(err)
	}

	inj := fault.New(1)
	inj.Add(fault.Rule{Op: fault.OpOpen, Kind: fault.KindError, FailN: 1, Message: "disk gone"})
	fs.SetInjector(inj)
	if _, err := fs.ReadFile("/d/f"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected open error, got %v", err)
	}
	data, err := fs.ReadFile("/d/f") // FailN exhausted
	if err != nil || string(data) != "hello world" {
		t.Fatalf("read after exhausted rule = (%q, %v)", data, err)
	}

	inj.Reset()
	inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindShortRead, FailN: 1, Fraction: 0.5})
	if data, err = fs.ReadFile("/d/f"); err != nil {
		t.Fatal(err)
	}
	if len(data) != len("hello world")/2 {
		t.Fatalf("short read returned %d bytes, want %d", len(data), len("hello world")/2)
	}

	inj.Reset()
	inj.Add(fault.Rule{Op: fault.OpAppend, Kind: fault.KindError, FailN: 1})
	if err := fs.Append("/d/f", []byte("x")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected append error, got %v", err)
	}

	// Injection must not have mutated stored bytes: a clean injector sees
	// the original content.
	fs.SetInjector(nil)
	data, err = fs.ReadFile("/d/f")
	if err != nil || string(data) != "hello world" {
		t.Fatalf("stored bytes changed under injection: (%q, %v)", data, err)
	}
}

func TestRenameAndWriteFileAtomic(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/old", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d/old", "/d/new"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/old") {
		t.Fatal("source survived rename")
	}
	if data, err := fs.ReadFile("/d/new"); err != nil || string(data) != "v1" {
		t.Fatalf("renamed file = (%q, %v)", data, err)
	}
	if err := fs.Rename("/d/missing", "/d/x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rename of missing file: want ErrNotFound, got %v", err)
	}

	// WriteFileAtomic replaces content in one step and leaves no temp file.
	if err := fs.WriteFileAtomic("/d/new", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if data, err := fs.ReadFile("/d/new"); err != nil || string(data) != "v2" {
		t.Fatalf("after atomic rewrite = (%q, %v)", data, err)
	}
	if fs.Exists("/d/new.tmp") {
		t.Fatal("temp file left behind")
	}

	// A write failure (injected) leaves the original intact — the atomic
	// guarantee under fault.
	inj := fault.New(2)
	inj.Add(fault.Rule{Op: fault.OpAppend, Kind: fault.KindError, FailN: 1})
	fs.SetInjector(inj)
	if err := fs.WriteFileAtomic("/d/new", []byte("v3")); err == nil {
		t.Fatal("atomic write with failing append returned nil")
	}
	fs.SetInjector(nil)
	if data, err := fs.ReadFile("/d/new"); err != nil || string(data) != "v2" {
		t.Fatalf("failed atomic write corrupted target: (%q, %v)", data, err)
	}
}

// A view is the stored bytes themselves, so the immutability invariant is
// what keeps it valid: whatever happens to the file afterwards, the view
// reads the bytes of the version it was taken from, and the next read sees a
// new version.
func TestViewSurvivesEveryMutation(t *testing.T) {
	mutations := map[string]func(fs *FS) error{
		"append":    func(fs *FS) error { return fs.Append("/d/f", []byte("-more")) },
		"writefile": func(fs *FS) error { return fs.WriteFile("/d/f", []byte("replaced")) },
		"rename-over": func(fs *FS) error {
			if err := fs.WriteFile("/d/tmp", []byte("renamed")); err != nil {
				return err
			}
			return fs.Rename("/d/tmp", "/d/f")
		},
		"atomic": func(fs *FS) error { return fs.WriteFileAtomic("/d/f", []byte("swapped")) },
		"link-over": func(fs *FS) error {
			if err := fs.WriteFile("/d/other", []byte("linked")); err != nil {
				return err
			}
			_, _, err := fs.Link("/d/other", "/d/f")
			return err
		},
		"delete+create": func(fs *FS) error {
			if err := fs.Delete("/d/f"); err != nil {
				return err
			}
			return fs.Create("/d/f")
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			fs := New()
			// Create + Append leaves spare capacity behind the content, the
			// case where an in-place append must not be visible to a view.
			if err := fs.Create("/d/f"); err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []string{"orig", "inal", "!"} {
				if err := fs.Append("/d/f", []byte(chunk)); err != nil {
					t.Fatal(err)
				}
			}
			before, err := fs.ReadView("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			if !before.Stored || cap(before.Data) != len(before.Data) {
				t.Fatalf("view stored=%v len=%d cap=%d, want the stored bytes, capacity-capped",
					before.Stored, len(before.Data), cap(before.Data))
			}
			if err := mutate(fs); err != nil {
				t.Fatal(err)
			}
			if string(before.Data) != "original!" {
				t.Errorf("view taken before %s now reads %q", name, before.Data)
			}
			after, err := fs.ReadView("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			if after.Version <= before.Version {
				t.Errorf("version %d after %s, was %d: every mutation must take a new one", after.Version, name, before.Version)
			}
			if name != "append" && len(after.Data) > 0 && &after.Data[0] == &before.Data[0] {
				t.Errorf("%s reused the old content's memory", name)
			}
		})
	}
}

// TestGenerationMovesWithEveryMutationOnly: Generation is what lets a caller
// keep something derived from a listing, so every method that changes what a
// listing, a size or a version would report must move it, and no method that
// only reads may.
func TestGenerationMovesWithEveryMutationOnly(t *testing.T) {
	fs := New()
	mutations := []struct {
		name string
		do   func() error
	}{
		{"Create", func() error { return fs.Create("/d/f") }},
		{"Append", func() error { return fs.Append("/d/f", []byte("abc")) }},
		{"WriteFile", func() error { return fs.WriteFile("/d/f", []byte("replaced")) }},
		{"WriteFileVersion", func() error { _, err := fs.WriteFileVersion("/d/g", []byte("g")); return err }},
		{"WriteFileAtomic", func() error { return fs.WriteFileAtomic("/d/f", []byte("swapped")) }},
		{"Rename", func() error { return fs.Rename("/d/g", "/d/h") }},
		{"Link", func() error { _, _, err := fs.Link("/d/f", "/d/l"); return err }},
		{"Delete", func() error { return fs.Delete("/d/l") }},
		{"DeleteDir", func() error {
			if n := fs.DeleteDir("/d"); n != 2 {
				return errors.New("DeleteDir did not remove the two files left")
			}
			return nil
		}},
	}
	for _, m := range mutations {
		before := fs.Generation()
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if after := fs.Generation(); after <= before {
			t.Errorf("Generation %d after %s, was %d", after, m.name, before)
		}
	}

	if err := fs.WriteFile("/d/f", []byte("content")); err != nil {
		t.Fatal(err)
	}
	reads := map[string]func(){
		"ReadView":  func() { _, _ = fs.ReadView("/d/f") },
		"ReadFile":  func() { _, _ = fs.ReadFile("/d/f") },
		"Size":      func() { _, _ = fs.Size("/d/f") },
		"Exists":    func() { fs.Exists("/d/f") },
		"List":      func() { fs.List("/d") },
		"ListFiles": func() { fs.ListFiles("/d") },
		"Stats":     func() { fs.Stats(); fs.ResetStats() },
		"Injector":  func() { fs.SetInjector(fs.Injector()) },
		// A refused mutation changed nothing.
		"Create existing":   func() { _ = fs.Create("/d/f") },
		"Append missing":    func() { _ = fs.Append("/d/none", []byte("x")) },
		"Rename missing":    func() { _ = fs.Rename("/d/none", "/d/f") },
		"Link missing":      func() { _, _, _ = fs.Link("/d/none", "/d/f") },
		"Delete missing":    func() { _ = fs.Delete("/d/none") },
		"DeleteDir nothing": func() { fs.DeleteDir("/elsewhere") },
	}
	for name, read := range reads {
		before := fs.Generation()
		read()
		if after := fs.Generation(); after != before {
			t.Errorf("Generation %d after %s, was %d: nothing changed", after, name, before)
		}
	}
}

// TestLinkSharesStoredBytes: a link is a second name for the same stored
// bytes with a version of its own, and from then on the two names live apart —
// appending to, replacing or deleting either leaves the other as it was.
func TestLinkSharesStoredBytes(t *testing.T) {
	fs := New()
	// Create + Append leaves spare capacity behind src's content: the case
	// where the two files' appends could meet in one array.
	if err := fs.Create("/d/src"); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"sha", "red"} {
		if err := fs.Append("/d/src", []byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	src, err := fs.ReadView("/d/src")
	if err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	srcVersion, linked, err := fs.Link("/d/src", "/e/dst")
	if err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.BytesWritten != 0 || st.BytesRead != 0 || st.FilesCreated != 1 {
		t.Errorf("link moved bytes: %+v", st)
	}
	dst, err := fs.ReadView("/e/dst")
	if err != nil {
		t.Fatal(err)
	}
	if &dst.Data[0] != &src.Data[0] || !dst.Stored {
		t.Error("the link does not share the stored bytes")
	}
	if srcVersion != src.Version || linked.Version != dst.Version || dst.Version <= src.Version ||
		linked.Name != "/e/dst" || linked.Size != int64(len("shared")) {
		t.Errorf("Link returned src version %d and %+v; src is at %d, dst at %d", srcVersion, linked, src.Version, dst.Version)
	}
	if got := fs.ListFiles("/e"); len(got) != 1 || got[0] != linked {
		t.Errorf("ListFiles = %+v, want the link as Link reported it", got)
	}

	if err := fs.Append("/d/src", []byte("+src")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/e/dst", []byte("+dst")); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"/d/src": "shared+src", "/e/dst": "shared+dst"} {
		if got, err := fs.ReadFile(name); err != nil || string(got) != want {
			t.Errorf("%s reads %q (%v) after both names were appended to, want %q", name, got, err, want)
		}
	}
	if string(src.Data) != "shared" || string(dst.Data) != "shared" {
		t.Errorf("views taken before the appends now read %q and %q", src.Data, dst.Data)
	}
	if fs.DeleteDir("/d") != 1 {
		t.Fatal("src not deleted")
	}
	if got, err := fs.ReadFile("/e/dst"); err != nil || string(got) != "shared+dst" {
		t.Errorf("the link reads %q (%v) after its source was deleted", got, err)
	}

	if _, _, err := fs.Link("/d/src", "/e/again"); !errors.Is(err, ErrNotFound) {
		t.Errorf("linking a missing file: %v, want ErrNotFound", err)
	}
	inj := fault.New(1)
	inj.Add(fault.Rule{Pattern: "/e/denied", Op: fault.OpAppend, Kind: fault.KindError})
	fs.SetInjector(inj)
	if _, _, err := fs.Link("/e/dst", "/e/denied"); !errors.Is(err, fault.ErrInjected) || fs.Exists("/e/denied") {
		t.Errorf("a link is a write and must fail like one: err %v, exists %v", err, fs.Exists("/e/denied"))
	}
}

func TestReadViewSharesStoredBytesAndMeters(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/f", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	a, err := fs.ReadView("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadView("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if &a.Data[0] != &b.Data[0] || a.Version != b.Version {
		t.Error("two views of one version must share the stored bytes")
	}
	if st := fs.Stats(); st.Opens != 2 || st.BytesRead != 22 {
		t.Errorf("stats = %+v, want 2 opens and 22 bytes handed out", st)
	}
	infos := fs.ListFiles("/d")
	if len(infos) != 1 || infos[0].Name != "/d/f" || infos[0].Size != 11 || infos[0].Version != a.Version {
		t.Errorf("ListFiles = %+v", infos)
	}
	if st := fs.Stats(); st.Opens != 2 {
		t.Errorf("ListFiles counted as a read: %+v", st)
	}
	if _, err := fs.ReadView("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing file error = %v", err)
	}
}

// The injector sees the view exactly as it saw ReadFile's copy: a corrupting
// rule gets a private copy, a short read a shorter slice, and in both cases
// the view says it is not the stored content.
func TestReadViewUnderInjection(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/f", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	clean, err := fs.ReadView("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(7)
	fs.SetInjector(inj)

	inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindCorrupt, FailN: 1})
	v, err := fs.ReadView("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if v.Stored || string(v.Data) == "hello world" || &v.Data[0] == &clean.Data[0] {
		t.Errorf("corrupt read: stored=%v data=%q, want a mangled private copy", v.Stored, v.Data)
	}

	inj.Reset()
	inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindShortRead, FailN: 1, Fraction: 0.5})
	if v, err = fs.ReadView("/d/f"); err != nil {
		t.Fatal(err)
	}
	if v.Stored || len(v.Data) != 5 {
		t.Errorf("short read: stored=%v len=%d, want 5 bytes not marked stored", v.Stored, len(v.Data))
	}

	inj.Reset()
	inj.Add(fault.Rule{Op: fault.OpRead, Kind: fault.KindError, FailN: 1, Transient: true})
	if _, err = fs.ReadView("/d/f"); !fault.Transient(err) {
		t.Errorf("read error = %v, want the injected transient error", err)
	}

	// Rules exhausted: the pristine view again, and the stored bytes intact.
	if v, err = fs.ReadView("/d/f"); err != nil || !v.Stored || v.Version != clean.Version {
		t.Errorf("after the faults: %+v err=%v", v, err)
	}
	if string(clean.Data) != "hello world" {
		t.Errorf("injection mangled the stored bytes: %q", clean.Data)
	}
}

// Readers of one file share its bytes; run with -race.
func TestConcurrentViewsAndAppends(t *testing.T) {
	fs := New()
	if err := fs.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/d/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := fs.ReadView("/d/f")
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.HasPrefix(v.Data, []byte("0123456789")) || len(v.Data)%10 != 0 {
					t.Errorf("torn view: %q", v.Data)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := fs.Append("/d/f", []byte("0123456789")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestCleanNames pins how file names are canonicalised — rooted, with no
// empty, "." or ".." elements and no trailing slash — and that it is what
// path.Clean("/" + strings.TrimPrefix(p, "/")) gave, the form clean had
// before it skipped the concatenation for rooted names.
func TestCleanNames(t *testing.T) {
	for in, want := range map[string]string{
		"":                    "/",
		"/":                   "/",
		"//":                  "/",
		"a":                   "/a",
		"/a":                  "/a",
		"//a//b/":             "/a/b",
		"db/t/part-00000.orc": "/db/t/part-00000.orc",
		"/db/./t/../t/p":      "/db/t/p",
		"../x":                "/x",
		"/../x":               "/x",
		"./":                  "/",
		"a/b/..":              "/a",
		"///a/./b//../c/.":    "/a/c",
	} {
		if got := clean(in); got != want {
			t.Errorf("clean(%q) = %q, want %q", in, got, want)
		}
		if before := path.Clean("/" + strings.TrimPrefix(in, "/")); before != want {
			t.Errorf("the former clean(%q) = %q, want %q", in, before, want)
		}
	}
}

// TestCleanNameAllocatesNothing: a name that is already clean, as every
// name the warehouse builds is, comes back without an allocation.
func TestCleanNameAllocatesNothing(t *testing.T) {
	name := "/db/t/part-00000.orc"
	if allocs := testing.AllocsPerRun(100, func() { _ = clean(name) }); allocs != 0 {
		t.Errorf("clean(%q) allocates %v times, want 0", name, allocs)
	}
}
