//go:build race

package core

// raceEnabled: allocation counts are not asserted under the race detector,
// whose instrumentation may allocate on its own.
const raceEnabled = true
