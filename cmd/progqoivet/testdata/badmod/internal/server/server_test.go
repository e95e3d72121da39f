package server

import "testing"

// TestGone compares a sentinel with ==: errwrapcheck, in a _test.go
// file, which only the package's test variant contains.
func TestGone(t *testing.T) {
	var err error
	if err == ErrGone {
		t.Fatal(err)
	}
}
