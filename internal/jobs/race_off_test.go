//go:build !race

package jobs

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
