//go:build race

package core_test

// raceEnabled skips recomputing the paper-scale exact optimum under the race
// detector, whose instrumentation makes the search many times slower.
const raceEnabled = true
