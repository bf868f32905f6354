//go:build race

package orc

// Under the race detector sync.Pool drops a quarter of its puts at random,
// so how often a writer finds no scratch to reuse — and with it every
// allocation count a test takes over a write — would change from run to run.
// A race build keeps released scratch on a bounded free list instead. Its 16
// slots exceed the writers this system runs at once (an append, the
// ingest it triggers, a cycle's populate, a test's own); a put that finds it
// full leaves its scratch to the GC.
var scratchFree = make(chan *scratch, 16)

func getScratch() *scratch {
	select {
	case s := <-scratchFree:
		return s
	default:
		return newScratch()
	}
}

func putScratch(s *scratch) {
	select {
	case scratchFree <- s:
	default: // more writers at once than the list keeps: let this one go
	}
}
