package mpi

import (
	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
)

// Bandwidth-optimal large-message allreduce algorithms, replacing the
// latency-doubling Reduce + Bcast composition: recursive doubling (log P
// full-vector exchanges; best when latency dominates) and the ring
// algorithm (reduce-scatter followed by ring allgather: every rank moves
// ~2n bytes regardless of P, the bandwidth optimum for large vectors).
// Both run on the contiguous base-typed reduction views of collview.go,
// so they serve derived datatypes unchanged.

// Tags of the bandwidth algorithms.
const (
	tagARecDbl = 13 << 20 // + round; the rem-fold and final return use fixed offsets below
	tagARing   = 14 << 20 // + step
)

const (
	tagARecDblFold  = tagARecDbl + (1 << 19)
	tagARecDblFinal = tagARecDbl + (1 << 19) + 1
)

// recDblSteps returns the steps of recursive doubling over size ranks: the
// fold, one round per doubling of the largest power of two within size,
// and the return of the result.
func recDblSteps(size int) int { return ceilLog2(size+1) + 1 }

// recDblPeer returns rank me's partner at step s of recursive doubling over
// size ranks (-1: me idles), and whether me sends to it, receives from it,
// or both. Non-power-of-two sizes fold the first rem pairs onto their odd
// member at step 0 and fan the result back out at the last step (MPICH's
// rem-handling); in between the remaining pow2 ranks exchange with the
// partner at distance 2^(s-1) of their renumbering.
func recDblPeer(me, s, size int) (peer int, sends, recvs bool) {
	pow2 := 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	rem := size - pow2
	rounds := ceilLog2(pow2)
	switch {
	case s == 0 || s == rounds+1:
		if me >= 2*rem {
			return -1, false, false
		}
		odd := me%2 == 1
		if s == 0 {
			return me ^ 1, !odd, odd
		}
		return me ^ 1, odd, !odd
	case me < 2*rem && me%2 == 0:
		return -1, false, false // folded: idle until the result returns
	}
	newRank := me - rem
	if me < 2*rem {
		newRank = me / 2
	}
	partnerNew := newRank ^ (1 << (s - 1))
	if partnerNew < rem {
		return partnerNew*2 + 1, true, true
	}
	return partnerNew + rem, true, true
}

// allreduceRecDbl reduces acc (elems elements of base) across all ranks
// with recursive doubling, on recDblPeer's schedule. c must be the
// collective view.
func (c *Comm) allreduceRecDbl(acc []byte, elems int, base *datatype.Type, rop Op) error {
	size := c.Size()
	me := c.Rank()
	last := recDblSteps(size) - 1
	if peer, sends, _ := recDblPeer(me, 0, size); sends {
		// Fold onto the odd partner, then idle until the result returns.
		if err := c.send(acc, elems, base, peer, tagARecDblFold, c.ctx); err != nil {
			return err
		}
		return c.recvColl(acc, elems, base, peer, tagARecDblFinal)
	}
	scratch := bufpool.Get(len(acc)) // back unless a receive failed on it
	tmp := scratch.B
	if peer, _, recvs := recDblPeer(me, 0, size); recvs {
		if err := c.recvColl(tmp, elems, base, peer, tagARecDblFold); err != nil {
			return err
		}
		// The partner is the lower rank: acc = partner op mine.
		c.combineColl(rop, base, acc, tmp, acc, elems)
	}
	for s := 1; s < last; s++ {
		partner, _, _ := recDblPeer(me, s, size)
		round := s - 1
		if err := c.sendrecvColl(acc, elems, base, partner, tagARecDbl+round,
			tmp, elems, base, partner, tagARecDbl+round); err != nil {
			return err
		}
		// Fold in rank order so non-commutative combiners stay well defined.
		if partner < me {
			c.combineColl(rop, base, acc, tmp, acc, elems)
		} else {
			c.combineColl(rop, base, acc, acc, tmp, elems)
		}
	}
	scratch.Put()
	if peer, sends, _ := recDblPeer(me, last, size); sends {
		return c.send(acc, elems, base, peer, tagARecDblFinal, c.ctx)
	}
	return nil
}

// ringLink exchanges one block per ring step: out goes to the right
// neighbour, the left neighbour's block lands in in. The blocks travel
// point-to-point, or as window deposits (collos.go) when oneSided is set.
// finish drains any trailing protocol traffic before the collective returns.
// It is one struct used by value, not an interface over two, so that a call
// keeps it on its stack.
type ringLink struct {
	cc          *Comm
	right, left int // communicator-local neighbours
	steps       int // total steps the caller will run
	oneSided    bool
}

// xfer runs step t: out goes right, the left neighbour's block lands in in
// — on a reduce-scatter step (mine not nil) folded with the rank's own
// block as op(mine, partial), elements of base, read where it lands.
func (l *ringLink) xfer(t int, out, in, mine []byte, base *datatype.Type, rop Op) error {
	if l.oneSided {
		return l.osXfer(t, out, in, mine, base, rop)
	}
	c := l.cc
	r := c.irecvFold(in, mine, len(in)/int(base.Size()), base, rop, l.left, tagARing+t)
	if err := c.send(out, len(out), datatype.Byte, l.right, tagARing+t, c.ctx); err != nil {
		return err
	}
	return c.waitColl(r)
}

func (l *ringLink) finish() error {
	if l.oneSided {
		return l.osFinish()
	}
	return nil
}

// ringPeers returns the ring neighbours of rank me: every step of the ring
// algorithms receives from the left one and sends to the right one.
func ringPeers(me, size int) (left, right int) { return (me - 1 + size) % size, (me + 1) % size }

// ringBlock returns the byte range of partition block i of elems elements
// (the even spread all members compute identically).
func ringBlock(acc []byte, elems, size, i int, es int64) []byte {
	lo := int64(elems*i/size) * es
	hi := int64(elems*(i+1)/size) * es
	return acc[lo:hi]
}

// ringSendBlock returns the block index rank me forwards to its right
// neighbour at global step s of the 2(size-1)-step ring allreduce: the
// reduce-scatter rotation for the first size-1 steps, then the allgather
// rotation. It is the single schedule shared by the process-based
// collective engine (allreduceRing) and the torus collective runtime
// (TorusWorld); the block received at step s is always the sent block's
// left neighbour, (ringSendBlock(me,s,size)-1+size) % size.
func ringSendBlock(me, s, size int) int {
	if s < size-1 {
		return ((me-s)%size + size) % size
	}
	return ((me+1-(s-(size-1)))%size + 2*size) % size
}

// allreduceRing reduces across all ranks into acc with reduce-scatter
// followed by ring allgather. src holds this rank's contribution: acc itself,
// or a dense send buffer the caller keeps apart from acc. The left
// neighbour's partial of a reduce-scatter step folds with src's block into
// acc's where it lands (xfer), so no scratch block is borrowed; every block
// of acc is written by the ring before it is read. oneSided selects the
// window-deposit block exchange (the one-sided family); otherwise blocks
// travel point-to-point. c must be the collective view.
func (c *Comm) allreduceRing(src, acc []byte, elems int, base *datatype.Type, rop Op, oneSided bool) error {
	size := c.Size()
	me := c.Rank()
	es := base.Size()
	left, right := ringPeers(me, size)
	steps := 2 * (size - 1)
	link := ringLink{cc: c, right: right, left: left, steps: steps, oneSided: oneSided}
	// Reduce-scatter for the first size-1 steps (after which rank me holds
	// the complete reduction of block (me+1) mod size), then ring allgather
	// of the completed blocks — both driven by the shared rotation. Step 0
	// sends this rank's own block, which only src holds.
	for t := 0; t < steps; t++ {
		sendIdx := ringSendBlock(me, t, size)
		recvIdx := (sendIdx - 1 + size) % size
		out := ringBlock(acc, elems, size, sendIdx, es)
		if t == 0 {
			out = ringBlock(src, elems, size, sendIdx, es)
		}
		var mine []byte
		if t < size-1 {
			mine = ringBlock(src, elems, size, recvIdx, es)
		}
		if err := link.xfer(t, out, ringBlock(acc, elems, size, recvIdx, es), mine, base, rop); err != nil {
			return err
		}
	}
	return link.finish()
}
