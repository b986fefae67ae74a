//go:build race

package jobs

// raceEnabled reports whether the race detector is active; the heap-growth
// test, 200 jobs over a Q7 SF 4 document, sits it out.
const raceEnabled = true
