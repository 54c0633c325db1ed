//go:build race

package sim

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions are skipped.
const raceEnabled = true
