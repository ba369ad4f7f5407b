//go:build !race

package mdx

const raceEnabled = false
