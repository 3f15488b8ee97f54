package mpi

import (
	"unsafe"

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
	tagARecDbl = 13 << 20 // + step of recDblPeer's schedule
	tagARing   = 14 << 20 // + step
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

// allreduceRecDbl reduces across all ranks into acc with recursive
// doubling, on recDblPeer's schedule. src holds this rank's contribution:
// acc itself, or a dense send buffer the caller keeps apart from acc. Every
// partial folds into acc where it lands (foldExchange) in rank order,
// op(lower, higher), so both members of a pair hold the same bytes after
// it. c must be the collective view.
func (c *Comm) allreduceRecDbl(src, acc []byte, elems int, base *datatype.Type, rop Op) error {
	size := c.Size()
	me := c.Rank()
	last := recDblSteps(size) - 1
	if peer, sends, _ := recDblPeer(me, 0, size); sends {
		// Fold onto the odd partner, then idle until the result returns.
		if err := c.send(src, elems, base, peer, tagARecDbl, c.ctx); err != nil {
			return err
		}
		return c.recvColl(acc, elems, base, peer, tagARecDbl+last)
	}
	cur := src // the vector the rank holds: its contribution, then acc
	for s := 0; s < last; s++ {
		partner, sends, recvs := recDblPeer(me, s, size)
		if !recvs {
			continue // step 0 outside the rem fold
		}
		if err := c.foldExchange(cur, acc, sends, elems, base, rop, partner, tagARecDbl+s); err != nil {
			return err
		}
		cur = acc
	}
	if peer, sends, _ := recDblPeer(me, last, size); sends {
		return c.send(acc, elems, base, peer, tagARecDbl+last, c.ctx)
	}
	return nil
}

// foldExchange folds partner's partial into acc with out, the vector the
// rank holds, as op(lower rank's, higher rank's), and sends out to partner
// when sends. out may be acc, so while the send runs the device holds each
// chunk of the partial until the send has read the bytes it folds over
// (exchHold). The rem fold sends nothing and is not held.
func (c *Comm) foldExchange(out, acc []byte, sends bool, elems int, base *datatype.Type, rop Op, partner, tag int) error {
	var h *exchHold
	if sends {
		if w := c.rk.w; w.holds == nil {
			w.holds = make([]exchHold, w.size)
		}
		h = c.rk.hold()
		h.buf, h.read = unsafe.SliceData(out), 0
	}
	r := c.irecvFold(acc, out, elems, base, rop, partner < c.Rank(), partner, tag)
	if sends {
		err := c.send(out, elems, base, partner, tag, c.ctx)
		h.buf = nil
		c.rk.dev.release(c.p) // what a failed send leaves parked
		if err != nil {
			return err
		}
	}
	return c.waitColl(r)
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
	r := c.irecvFold(in, mine, len(in)/int(base.Size()), base, rop, false, l.left, tagARing+t)
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
