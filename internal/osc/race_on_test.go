//go:build race

package osc

// raceEnabled: under the race detector sync.Pool deliberately drops a share
// of the Puts and the instrumentation allocates on its own, so allocation
// budgets are not checked.
const raceEnabled = true
