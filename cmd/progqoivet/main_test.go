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
// against a known-bad module and a conforming one. The bad module makes
// every analyzer report, once in a _test.go file that only the test
// variant of its package holds, and suppresses one finding with a
// //progqoivet:allow directive; so a driver that drops an analyzer,
// skips test variants or ignores directives fails here.
func TestVettool(t *testing.T) {
	tool := buildTool(t)

	out, err := vet(t, tool, filepath.Join("testdata", "badmod"))
	if err == nil {
		t.Fatalf("go vet over badmod: want non-zero exit, got success\n%s", out)
	}
	for _, want := range []struct{ analyzer, file, msg string }{
		{"ctxflow", "lib/lib.go", "detaches this code"},
		{"flagmode", "lib/lib.go", "flag.ContinueOnError"},
		{"lockguard", "internal/server/server.go", "without holding s.mu"},
		{"slogonly", "internal/server/server.go", "log.Printf in the serving path"},
		{"tokencmp", "internal/server/server.go", "looks like a bearer secret"},
		{"traceguard", "internal/server/server.go", "must be guarded"},
		{"errwrapcheck", "internal/server/server_test.go", "use errors.Is"},
	} {
		if !hasLine(out, want.file, want.msg) {
			t.Errorf("badmod: no %s finding %q in %s:\n%s", want.analyzer, want.msg, want.file, out)
		}
	}
	if strings.Contains(out, "allowed.go") {
		t.Errorf("badmod: the //progqoivet:allow directive in allowed.go did not suppress its finding:\n%s", out)
	}

	out, err = vet(t, tool, filepath.Join("testdata", "cleanmod"))
	if err != nil {
		t.Errorf("go vet over cleanmod: want clean exit, got %v\n%s", err, out)
	}
}

// hasLine reports whether out has a finding in file whose line
// contains msg.
func hasLine(out, file, msg string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, file+":") && strings.Contains(line, msg) {
			return true
		}
	}
	return false
}
