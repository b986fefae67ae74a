//go:build race

package optimizer

// raceEnabled reports whether the race detector is active. Its runtime
// allocates on its own account, so allocation counts mean nothing there.
const raceEnabled = true
