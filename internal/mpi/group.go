package mpi

import (
	"fmt"
	"sort"
)

// Communicator management: Dup and Split create communicators with their
// own context (so their traffic never matches another communicator's) and,
// for Split, their own process group with translated ranks.

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

// Dup returns a communicator with the same group but a separate
// communication context (MPI_Comm_dup), collectively; a failed barrier panics.
func (c *Comm) Dup() *Comm {
	// Key the exchange by this rank's own collective-call sequence number:
	// matched collective calls have matching indices on every member, with
	// no reads of shared mutable state before the barrier.
	key := fmt.Sprintf("mpi.dup.%d.%d", c.ctx, c.w.callSeq(seqDup, c.ctx, c.rk.id))
	if c.Rank() == 0 {
		user, coll := c.w.nextCtxPair()
		c.w.Deposit(key, c.worldRank(0), [2]int{user, coll})
	}
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	pair := c.w.Collect(key)[c.worldRank(0)].([2]int)
	dup := c.derive()
	dup.ctx = pair[0]
	dup.collCtx = pair[1]
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	return dup
}

// Split partitions the communicator by color (MPI_Comm_split): every rank
// passing the same color lands in a new communicator holding those ranks,
// ordered by key (ties broken by old rank). A negative color returns nil
// (MPI_UNDEFINED). A failed barrier panics.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, world int }
	tag := fmt.Sprintf("mpi.split.%d.%d", c.ctx, c.w.callSeq(seqSplit, c.ctx, c.rk.id))
	c.w.Deposit(tag, c.worldRank(c.Rank()), entry{color, key, c.worldRank(c.Rank())})
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	var mine []entry
	for _, r := range c.groupRanks() {
		e := c.w.Collect(tag)[r].(entry)
		if e.color == color && color >= 0 {
			mine = append(mine, e)
		}
	}
	// Allocate one context pair per distinct color, in ascending color
	// order, so every member computes the same contexts.
	colors := map[int]bool{}
	for _, r := range c.groupRanks() {
		e := c.w.Collect(tag)[r].(entry)
		if e.color >= 0 {
			colors[e.color] = true
		}
	}
	ordered := make([]int, 0, len(colors))
	for col := range colors {
		ordered = append(ordered, col)
	}
	sort.Ints(ordered)
	ctxByColor := map[int][2]int{}
	ctxKey := tag + ".ctx"
	if c.Rank() == 0 {
		pairs := make(map[int][2]int, len(ordered))
		for _, col := range ordered {
			u, coll := c.w.nextCtxPair()
			pairs[col] = [2]int{u, coll}
		}
		c.w.Deposit(ctxKey, c.worldRank(0), pairs)
	}
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	allPairs := c.w.Collect(ctxKey)[c.worldRank(0)].(map[int][2]int)
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	if color < 0 {
		return nil
	}
	ctxByColor = allPairs

	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].world < mine[j].world
	})
	group := make([]int, len(mine))
	for i, e := range mine {
		group[i] = e.world
	}
	sub := c.derive()
	sub.group = group
	sub.ctx = ctxByColor[color][0]
	sub.collCtx = ctxByColor[color][1]
	return sub
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
