//go:build !race

package engine

// raceEnabled reports whether the race detector instruments this build;
// exact allocation-count pins are skipped under it.
const raceEnabled = false
