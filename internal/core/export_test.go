package core

// Exported for the external test package, which can import internal/dist
// (dist imports core) and so run the same instances on a loopback cluster.
var RandomTW2Query = randomTW2Query

const RaceEnabled = raceEnabled
