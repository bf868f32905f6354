//go:build !race

package orc

import "sync"

// scratchPool keeps released writer scratch for the next writer. A sync.Pool
// lets idle scratch go within two GC cycles, so nothing a writer allocated
// outlives the writing.
var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) { scratchPool.Put(s) }
