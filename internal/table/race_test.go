//go:build race

package table

// raceEnabled reports that the race detector is on.
const raceEnabled = true
