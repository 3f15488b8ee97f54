package mpi

import (
	"fmt"
)

// Process groups: the world communicator numbers its ranks as the world
// does, and one made by Shrink holds its own group of world ranks, with
// its own contexts so its traffic never matches another communicator's.

// worldRank translates a group-local rank to a world rank.
func (c *Comm) worldRank(r int) int {
	if c.group == nil {
		return r
	}
	if r < 0 || r >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d outside communicator of size %d", r, len(c.group)))
	}
	return c.group[r]
}

// localRank translates a world rank into this communicator's numbering
// (-1 if the rank is not a member).
func (c *Comm) localRank(world int) int {
	if c.group == nil {
		return world
	}
	for i, w := range c.group {
		if w == world {
			return i
		}
	}
	return -1
}

// nextCtxPair allocates a fresh (user, collective) context pair. All
// members call the constructor collectively in the same order, so the
// world-level counter yields identical values everywhere.
func (w *World) nextCtxPair() (int, int) {
	w.ctxCounter++
	base := 16 + 2*w.ctxCounter
	return base, base + 1
}

// groupRanks returns the world ranks of this communicator's members. The
// result is shared, never to be written: a split communicator's group, or
// the world's identity table, built by the first call that needs it.
func (c *Comm) groupRanks() []int {
	if c.group != nil {
		return c.group
	}
	if c.w.identity == nil {
		c.w.identity = make([]int, c.w.size)
		for i := range c.w.identity {
			c.w.identity[i] = i
		}
	}
	return c.w.identity
}
