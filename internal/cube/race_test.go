//go:build race

package cube

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what it is handed, so a pooled buffer is not an
// allocation-free one.
const raceEnabled = true
