//go:build !race

package bufpool

const raceEnabled = false
