package lockguard_test

import (
	"testing"

	"progqoi/internal/analysis/analyzertest"
	"progqoi/internal/analysis/lockguard"
)

func TestLockGuard(t *testing.T) {
	// The production default restricts the check to the concurrency
	// packages; fixtures run it everywhere.
	*lockguard.Pkgs = ""
	analyzertest.Run(t, lockguard.Analyzer, "lockfix")
}
