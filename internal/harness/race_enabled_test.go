//go:build race

package harness

// raceEnabled reports whether the race detector is active; it
// instruments allocation and drops sync.Pool items, so allocation
// counts are not asserted under it.
const raceEnabled = true
