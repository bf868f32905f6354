// Package leakcheck holds what the tests of several packages need from the
// runtime, using the standard library alone. It lets a package's tests
// observe that every goroutine they start also finishes: a package with a go
// statement calls Main from its TestMain; each cancel, abandon, drain and
// fault-injection test of that package then proves termination, since a
// goroutine it strands fails the run with the goroutine's stack. And
// SkipUnderRace keeps an allocation pin out of a -race binary.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"
)

// settle is how long goroutines get to finish once the code that stops them
// has returned (a closed connection's reader, a cancelled worker's defers).
const settle = 3 * time.Second

// Check waits for the number of goroutines to fall back to before, a
// runtime.NumGoroutine taken before the code under test ran. If it does not
// within the settle time, the error holds the stack of every goroutine.
func Check(before int) error {
	for deadline := time.Now().Add(settle); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			var dump bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&dump, 2)
			return fmt.Errorf("leakcheck: %d goroutines before, %d still running %v after:\n%s",
				before, runtime.NumGoroutine(), settle, dump.Bytes())
		}
	}
	return nil
}

// Main is a TestMain body: it runs the package's tests, then fails the run if
// they left a goroutine behind.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if err := Check(before); err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// SkipUnderRace skips an allocation pin in a -race binary. There the
// compiler keeps conversions it otherwise elides, and sync.Pool drops a share
// of its puts at random, so allocation counts are not what production
// allocates. CI runs the allocation pins in a step of their own, without
// -race.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}
