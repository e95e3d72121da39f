//go:build race

package progressive

// raceEnabled: allocation counts are not asserted under the race detector,
// whose instrumentation may allocate on its own.
const raceEnabled = true
