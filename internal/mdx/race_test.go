//go:build race

package mdx

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation pins that lean on it do not hold.
const raceEnabled = true
