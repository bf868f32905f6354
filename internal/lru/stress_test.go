package lru

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pathkey"
)

// TestCacheConcurrentStress drives the documented concurrency contract
// under the race detector: the Cache is a single-owner structure guarded by
// an external mutex, while the obs registry — which IS goroutine-safe —
// serves gauge registration, lock-free counter writes, and snapshot reads
// from other goroutines at the same time. A data race between the registry's
// GaugeFunc reads of live cache state and the locked access path is exactly
// what this test exists to catch.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		accesses   = 400
	)
	reg := obs.NewRegistry()
	cache := New(1 << 14)

	// The gauges read c.used / c.ll live; Snapshot below exercises them
	// while accesses mutate the cache under mu.
	var mu sync.Mutex
	instrumented := func(name obs.Name, f func() int64) {
		reg.GaugeFunc(name, func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return f()
		}, obs.L{K: "cache", V: "stress"})
	}
	instrumented("lru_used_bytes", func() int64 { return cache.Used() })
	instrumented("lru_entry_count", func() int64 { return int64(cache.ll.Len()) })

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot reader: races against fills unless the registry and the
	// gauge closures lock correctly.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()

	fills := reg.Counter("stress_fills_total")
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < accesses; i++ {
				key := pathkey.Key{
					DB: "db", Table: "t", Column: "doc",
					Path: fmt.Sprintf("$.a.b%d", (g*accesses+i)%64),
				}
				mu.Lock()
				cache.Access(key, int64(i%4), int64(16+i%32))
				mu.Unlock()
				fills.Inc()
			}
		}(g)
	}

	// Wait for the writers, then stop the snapshot reader.
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := fills.Value(); got != goroutines*accesses {
		t.Fatalf("fills counter = %d, want %d", got, goroutines*accesses)
	}
	stats := cache.Stats()
	if stats.Hits+stats.Misses != goroutines*accesses {
		t.Fatalf("cache saw %d accesses, want %d", stats.Hits+stats.Misses, goroutines*accesses)
	}
	snap := reg.Snapshot()
	if len(snap.Gauges) == 0 {
		t.Fatal("snapshot carries no gauges")
	}
}
