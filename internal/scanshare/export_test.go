package scanshare

import "repro/internal/sqlengine"

// State reports how many fingerprints s remembers and how many groups are
// open, so tests can check what a query leaves behind.
func State(s *Scheduler) (fingerprints, groups int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.tables {
		fingerprints += len(h.keys)
	}
	return fingerprints, len(s.groups)
}

// Abandoned reports whether the participant behind h has abandoned its pipe:
// it reads no further from the shared pass.
func Abandoned(h sqlengine.SharedScanHandle) bool { return h.(*participant).pipe.Abandoned() }
