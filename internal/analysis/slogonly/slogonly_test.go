package slogonly_test

import (
	"testing"

	"progqoi/internal/analysis/analyzertest"
	"progqoi/internal/analysis/slogonly"
)

func TestSlogOnly(t *testing.T) {
	// The production default restricts the check to the serving path;
	// fixtures run it everywhere.
	*slogonly.Pkgs = ""
	analyzertest.Run(t, slogonly.Analyzer, "slogfix")
}
