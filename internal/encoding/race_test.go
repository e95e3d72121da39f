//go:build race

package encoding

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so steady-state allocation counts do not hold.
const raceEnabled = true
