package segment

import (
	"testing"

	"armus/internal/leakcheck"
)

// TestMain fails the package if a goroutine of ours outlives its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
