//go:build !race

package optimizer

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
