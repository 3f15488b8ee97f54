package mpi

import (
	"slices"
	"testing"

	"scimpich/internal/allocwin"
)

// TestGroupRanksAllocatesNothing: the shrink agreement calls groupRanks in
// its polling loop, so on a world communicator it returns the world's one
// identity table, built by the first call, instead of a new one per call.
func TestGroupRanksAllocatesNothing(t *testing.T) {
	Run(DefaultConfig(4, 1), func(c *Comm) {
		if got := c.groupRanks(); !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Errorf("rank %d: world group %v, want [0 1 2 3]", c.Rank(), got)
		}
		if n := testing.AllocsPerRun(100, func() { c.groupRanks() }); n != 0 && !allocwin.RaceEnabled {
			t.Errorf("rank %d: groupRanks on the world communicator: %v allocs/call, want 0", c.Rank(), n)
		}
	})
}
