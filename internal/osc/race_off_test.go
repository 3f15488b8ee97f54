//go:build !race

package osc

const raceEnabled = false
