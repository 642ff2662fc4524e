//go:build race

package serve

// raceEnabled reports whether the race detector is active; its shadow
// memory bookkeeping allocates, so allocation-count tests skip themselves.
const raceEnabled = true
