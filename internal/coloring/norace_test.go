//go:build !race

package coloring

const raceEnabled = false
