//go:build race

package storage

// raceEnabled: allocation counts are not asserted under the race detector,
// whose instrumentation may allocate on its own and under which sync.Pool
// drops items at random.
const raceEnabled = true
