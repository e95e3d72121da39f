// Package server sits at progqoi/internal/server, inside the default
// scope of lockguard and slogonly, and breaks one invariant per
// analyzer that checks serving code.
package server

import (
	"errors"
	"log"
	"sync"

	"progqoi/internal/obs"
)

// ErrGone is a sentinel error.
var ErrGone = errors.New("gone")

type stats struct {
	mu       sync.Mutex
	requests int // guarded by mu
}

// Requests reads a guarded field without its mutex: lockguard.
func (s *stats) Requests() int {
	return s.requests
}

// Serve logs through the stdlib log package: slogonly.
func Serve() {
	log.Printf("serving")
}

// Authorized compares a bearer token with ==: tokencmp.
func Authorized(token, want string) bool {
	return token == want
}

// Fetch builds a span name on a possibly nil trace: traceguard.
func Fetch(tr *obs.Trace, name string) {
	tr.Begin("fetch", "frag "+name)
}
