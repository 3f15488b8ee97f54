//go:build !race

package allocwin

const RaceEnabled = false
