//go:build !race

package sci

const raceEnabled = false
