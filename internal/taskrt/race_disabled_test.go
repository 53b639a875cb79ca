//go:build !race

package taskrt

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
