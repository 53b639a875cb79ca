//go:build !race

package stencil

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
