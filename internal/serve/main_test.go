package serve

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package's run if its tests strand a goroutine.
func TestMain(m *testing.M) { leakcheck.Main(m) }
