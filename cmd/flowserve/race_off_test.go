//go:build !race

package main

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
