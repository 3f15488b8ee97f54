//go:build race

package bufpool

// raceEnabled: under the race detector sync.Pool deliberately drops a share
// of the Puts, so tests cannot assert that a buffer is recycled.
const raceEnabled = true
