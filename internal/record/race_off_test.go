//go:build !race

package record

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
