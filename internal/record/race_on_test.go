//go:build race

package record

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool drops a fraction of puts, so a pooled batch's allocation count
// is not meaningful there.
const raceEnabled = true
