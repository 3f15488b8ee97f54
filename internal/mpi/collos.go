package mpi

import (
	"scimpich/internal/datatype"
	"scimpich/internal/smi"
)

// One-sided collective algorithms: instead of running the point-to-point
// protocols (handshakes, eager slots, per-chunk CTS/ack cycles), ranks
// deposit payload blocks directly into their peers' collective windows —
// per-rank shared segments reachable over every transport — and flag them
// with a zero-byte notify. The receiver copies the block out of its own
// window and acks, which frees the slot for reuse. This is the paper's
// one-sided deposit discipline applied to collective traffic: one stream
// write and two control packets per block, no rendezvous.
//
// Window layout: rank r exposes size*CollSlot bytes; the slot for deposits
// *from* world rank s starts at s*CollSlot. Each slot splits into two
// halves for double buffering, so pipelined algorithms (bcast) overlap the
// deposit of chunk i with the drain of chunk i-1; the ack of chunk i-2
// gates the reuse of its half.

// Tags of the one-sided collective protocol (notify / ack, offset by the
// chunk or step index).
const (
	tagCollOSN = 15 << 20
	tagCollOSA = 16 << 20
)

// osChunk returns the double-buffered half-slot: the chunk size of the
// pipelined one-sided algorithms.
func (w *World) osChunk() int64 { return w.protocol().CollSlot / 2 }

// collWin returns owner's collective window, building it on first use.
// Construction has no virtual-time cost, so lazy building is transparent
// to the simulation; runs that never pick a one-sided algorithm allocate
// nothing.
func (w *World) collWin(owner int) *SharedSeg {
	if w.collWins == nil {
		w.collWins = make([]*SharedSeg, w.size)
		w.collViews = make([][]smi.Mem, w.size)
	}
	if w.collWins[owner] == nil {
		w.collWins[owner] = w.allocShared(owner, int64(w.size)*w.protocol().CollSlot)
		w.collViews[owner] = make([]smi.Mem, w.size)
	}
	return w.collWins[owner]
}

// collView returns (and caches) rank from's access view of owner's
// collective window.
func (w *World) collView(from, owner int) smi.Mem {
	seg := w.collWin(owner)
	if w.collViews[owner][from] == nil {
		w.collViews[owner][from] = seg.MapFrom(from)
	}
	return w.collViews[owner][from]
}

// osDeposit writes data into the destination's collective window at off
// and makes it visible (store barrier + transfer check), with crash
// detection and transient-fault retry. dstWorld is a world rank.
func (c *Comm) osDeposit(dstWorld int, off int64, data []byte) error {
	if err := c.peerLost(dstWorld); err != nil {
		return err
	}
	mem := c.rk.w.collView(c.rk.id, dstWorld)
	return c.retryTransfer(dstWorld, func() error {
		if err := c.peerLost(dstWorld); err != nil {
			return err
		}
		if len(data) > 0 {
			if err := mem.WriteStream(c.p, off, data, 2*int64(len(data))); err != nil {
				return err
			}
		}
		return mem.Sync(c.p)
	})
}

// osCopyOut copies a deposited block out of this rank's own window.
func (c *Comm) osCopyOut(off int64, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	return c.rk.w.collView(c.rk.id, c.rk.id).Read(c.p, off, dst)
}

// osSlotOff returns the offset of world rank src's slot half for chunk or
// step index t in any window.
func (w *World) osSlotOff(srcWorld, t int) int64 {
	return int64(srcWorld)*w.protocol().CollSlot + int64(t%2)*w.osChunk()
}

// bcastOneSided broadcasts a contiguous payload down the binomial tree
// with chunk-pipelined window deposits: each chunk received from the
// parent is forwarded to the children while the parent streams the next
// one, so the tree depth costs one chunk fill each instead of a full
// store-and-forward message. c must be the collective view.
func (c *Comm) bcastOneSided(buf []byte, root int) error {
	w := c.rk.w
	size := c.Size()
	me := c.Rank()
	chunk := w.osChunk()
	n := int64(len(buf))
	nChunks := int((n + chunk - 1) / chunk)
	if nChunks == 0 {
		nChunks = 1
	}
	vrank := (me - root + size) % size
	depth := ceilLog2(size)
	parent := -1
	for k := 0; k < depth; k++ {
		if peer, up := binomialPeer(vrank, k, size); up {
			parent = (peer + root) % size
		}
	}
	for i := 0; i < nChunks; i++ {
		lo := int64(i) * chunk
		hi := min(lo+chunk, n)
		piece := buf[lo:hi]
		if parent >= 0 {
			if err := c.recvColl(nil, 0, datatype.Byte, parent, tagCollOSN+i); err != nil {
				return err
			}
			if err := c.osCopyOut(w.osSlotOff(c.worldRank(parent), i), piece); err != nil {
				return err
			}
			if err := c.send(nil, 0, datatype.Byte, parent, tagCollOSA+i, c.ctx); err != nil {
				return err
			}
		}
		for k := 0; k < depth; k++ {
			peer, up := binomialPeer(vrank, k, size)
			if peer < 0 || up {
				continue
			}
			child := (peer + root) % size
			if i >= 2 {
				if err := c.recvColl(nil, 0, datatype.Byte, child, tagCollOSA+i-2); err != nil {
					return err
				}
			}
			if err := c.osDeposit(c.worldRank(child), w.osSlotOff(c.rk.id, i), piece); err != nil {
				return err
			}
			if err := c.send(nil, 0, datatype.Byte, child, tagCollOSN+i, c.ctx); err != nil {
				return err
			}
		}
	}
	// Drain the children's last acks so the slot halves are free for the
	// next collective before this one returns.
	for k := 0; k < depth; k++ {
		peer, up := binomialPeer(vrank, k, size)
		if peer < 0 || up {
			continue
		}
		for i := max(nChunks-2, 0); i < nChunks; i++ {
			if err := c.recvColl(nil, 0, datatype.Byte, (peer+root)%size, tagCollOSA+i); err != nil {
				return err
			}
		}
	}
	return nil
}

// osExchange is the one-shot window exchange behind the one-sided
// allgather and alltoall: deposit out(dst) into every peer's slot and
// notify; copy every peer's deposit out of the local window into in(src)
// and ack; drain the acks. Blocks must fit one slot (the chooser's
// eligibility check), so there is no in-operation slot reuse and deposits
// need no chunking.
func (c *Comm) osExchange(out func(dst int) []byte, in func(src int) []byte) error {
	w := c.rk.w
	size := c.Size()
	me := c.Rank()
	slot := w.protocol().CollSlot
	for step := 1; step < size; step++ {
		dst, _ := pairwisePeers(me, step, size)
		if err := c.osDeposit(c.worldRank(dst), int64(c.rk.id)*slot, out(dst)); err != nil {
			return err
		}
		if err := c.send(nil, 0, datatype.Byte, dst, tagCollOSN, c.ctx); err != nil {
			return err
		}
	}
	for step := 1; step < size; step++ {
		_, src := pairwisePeers(me, step, size)
		if err := c.recvColl(nil, 0, datatype.Byte, src, tagCollOSN); err != nil {
			return err
		}
		if err := c.osCopyOut(int64(c.worldRank(src))*slot, in(src)); err != nil {
			return err
		}
		if err := c.send(nil, 0, datatype.Byte, src, tagCollOSA, c.ctx); err != nil {
			return err
		}
	}
	for step := 1; step < size; step++ {
		dst, _ := pairwisePeers(me, step, size)
		if err := c.recvColl(nil, 0, datatype.Byte, dst, tagCollOSA); err != nil {
			return err
		}
	}
	return nil
}

// osXfer is the window-deposit block exchange of the one-sided ring
// allreduce: per step, deposit the outgoing block into the right
// neighbour's slot half, await the left neighbour's notify, take its block
// — copied out, or on a reduce-scatter step (mine not nil) folded as
// op(mine, block) into in straight out of the window — and ack. The ack of
// step t-2 gates the reuse of a half.
func (l *ringLink) osXfer(t int, out, in, mine []byte, base *datatype.Type, rop Op) error {
	c := l.cc
	w := c.rk.w
	if t >= 2 {
		if err := c.recvColl(nil, 0, datatype.Byte, l.right, tagCollOSA+t-2); err != nil {
			return err
		}
	}
	if err := c.osDeposit(c.worldRank(l.right), w.osSlotOff(c.rk.id, t), out); err != nil {
		return err
	}
	if err := c.send(nil, 0, datatype.Byte, l.right, tagCollOSN+t, c.ctx); err != nil {
		return err
	}
	if err := c.recvColl(nil, 0, datatype.Byte, l.left, tagCollOSN+t); err != nil {
		return err
	}
	var err error
	if off := w.osSlotOff(c.worldRank(l.left), t); mine == nil {
		err = c.osCopyOut(off, in)
	} else if len(in) > 0 {
		err = c.rk.dev.foldView(c.p, w.collView(c.rk.id, c.rk.id), off, reduceFold{op: int32(rop)}, base, in, mine)
	}
	if err != nil {
		return err
	}
	return c.send(nil, 0, datatype.Byte, l.left, tagCollOSA+t, c.ctx)
}

// osFinish drains the right neighbour's last acks, so the slot halves are
// free for the next collective.
func (l *ringLink) osFinish() error {
	first := l.steps - 2
	if first < 0 {
		first = 0
	}
	for t := first; t < l.steps; t++ {
		if err := l.cc.recvColl(nil, 0, datatype.Byte, l.right, tagCollOSA+t); err != nil {
			return err
		}
	}
	return nil
}
