//go:build !race

package encoding

const raceEnabled = false
