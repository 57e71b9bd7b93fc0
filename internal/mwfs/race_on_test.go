//go:build race

package mwfs

// raceEnabled skips the allocation-count assertions under the race detector,
// whose instrumentation allocates on paths that are clean in a normal build.
const raceEnabled = true
