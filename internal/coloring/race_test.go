//go:build race

package coloring

// raceEnabled reports that the race detector is on.
const raceEnabled = true
