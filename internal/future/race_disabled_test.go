//go:build !race

package future

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
