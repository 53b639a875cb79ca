//go:build race

package future

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation guards skip under it.
const raceEnabled = true
