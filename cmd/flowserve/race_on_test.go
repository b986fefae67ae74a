//go:build race

package main

// raceEnabled reports whether the race detector is active; the race
// runtime's own allocations move the live-heap reading the GC pacer pin
// measures, so that pin sits it out.
const raceEnabled = true
