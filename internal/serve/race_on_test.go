//go:build race

package serve

// raceEnabled reports whether the race detector instruments this build;
// allocation pins are skipped under it.
const raceEnabled = true
