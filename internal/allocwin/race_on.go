//go:build race

package allocwin

// RaceEnabled reports that the race detector is on: sync.Pool then drops a
// share of the Puts on purpose and the instrumentation allocates on its own,
// so allocation budgets are not checked.
const RaceEnabled = true
