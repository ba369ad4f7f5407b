//go:build !race

package cube

const raceEnabled = false
