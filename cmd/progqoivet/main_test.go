package main_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the vettool into a temp dir and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "progqoivet")
	out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building progqoivet: %v\n%s", err, out)
	}
	return tool
}

// vet runs `go vet -vettool=tool ./...` inside dir.
func vet(t *testing.T, tool, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestVettool drives the built binary through the real go vet protocol
// against a known-bad module (must fail, naming both violations) and a
// conforming one (must exit clean).
func TestVettool(t *testing.T) {
	tool := buildTool(t)

	out, err := vet(t, tool, filepath.Join("testdata", "badmod"))
	if err == nil {
		t.Fatalf("go vet over badmod: want non-zero exit, got success\n%s", out)
	}
	for _, want := range []string{
		"flag.ContinueOnError", // flagmode on the ExitOnError regression
		"detaches this code",   // ctxflow on the fresh root context
		"lib.go",               // diagnostics carry positions
	} {
		if !strings.Contains(out, want) {
			t.Errorf("badmod vet output missing %q:\n%s", want, out)
		}
	}

	out, err = vet(t, tool, filepath.Join("testdata", "cleanmod"))
	if err != nil {
		t.Errorf("go vet over cleanmod: want clean exit, got %v\n%s", err, out)
	}
}
