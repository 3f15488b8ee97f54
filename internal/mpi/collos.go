package mpi

import (
	"scimpich/internal/datatype"
	"scimpich/internal/sci"
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
		w.collViews = make([][]collImport, w.size)
	}
	if w.collWins[owner] == nil {
		w.collWins[owner] = w.allocShared(owner, int64(w.size)*w.protocol().CollSlot)
		w.collViews[owner] = make([]collImport, w.size)
	}
	return w.collWins[owner]
}

// collImport is one rank's access view of a collective window, and the
// storage of its mapping when the view crosses the ring.
type collImport struct {
	mem     smi.Mem // nil until imported
	mapping sci.Mapping
}

// collView returns (and caches) rank from's access view of owner's
// collective window. A denied import is returned and not cached: the next
// call imports again.
func (w *World) collView(from, owner int) (smi.Mem, error) {
	seg := w.collWin(owner)
	v := &w.collViews[owner][from]
	if v.mem == nil {
		mem, err := seg.MapInto(from, &v.mapping)
		if err != nil {
			return nil, err
		}
		v.mem = mem
	}
	return v.mem, nil
}

// osDeposit writes data into the destination's collective window at off
// (Deposit). dstWorld is a world rank; a lost one fails before collView
// imports its window, and a denied import fails the deposit.
func (c *Comm) osDeposit(dstWorld int, off int64, data []byte) error {
	if err := c.peerLost(dstWorld); err != nil {
		return err
	}
	view, err := c.rk.w.collView(c.rk.id, dstWorld)
	if err != nil {
		return err
	}
	return c.Deposit(view, dstWorld, off, data, 2*int64(len(data)))
}

// ownView returns this rank's view of its own collective window: the
// local region, which needs no import.
func (c *Comm) ownView() smi.Mem { return smi.FromShm(c.rk.w.collWin(c.rk.id).region) }

// osCopyOut copies a deposited block out of this rank's own window.
func (c *Comm) osCopyOut(off int64, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	return c.ownView().Read(c.p, off, dst)
}

// osSlotOff returns the offset of world rank src's slot half for chunk or
// step index t in any window.
func (w *World) osSlotOff(srcWorld, t int) int64 {
	return int64(srcWorld)*w.protocol().CollSlot + int64(t%2)*w.osChunk()
}

// osExchange is the one-shot window exchange behind the one-sided
// allgather and alltoall: deposit out(dst) into every peer's slot and
// notify; copy every peer's deposit out of the local window into in(src)
// and ack; drain the acks. Blocks must fit one slot (the chooser's
// eligibility check), so there is no in-operation slot reuse and deposits
// need no chunking. It keeps its own loop: all of a member's deposits run
// ahead of its takes, which no plan's step holds (see modelExchange).
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

// osStep runs one step of a plan on window deposits, idx its slot index:
// take the ack of the slot half it is about to reuse from its receiver,
// deposit out into that half and notify; then await its sender's notify,
// take the block — copied out, or folded as op(mine, block) into in straight
// out of the window — and ack.
func (c *Comm) osStep(from, to, idx int, st *collStep, x *collCall) error {
	w := c.rk.w
	if to >= 0 {
		if idx >= 2 {
			if err := c.recvColl(nil, 0, datatype.Byte, to, tagCollOSA+idx-2); err != nil {
				return err
			}
		}
		if err := c.osDeposit(c.worldRank(to), w.osSlotOff(c.rk.id, idx), st.out); err != nil {
			return err
		}
		if err := c.send(nil, 0, datatype.Byte, to, tagCollOSN+idx, c.ctx); err != nil {
			return err
		}
	}
	if from < 0 {
		return nil
	}
	if err := c.recvColl(nil, 0, datatype.Byte, from, tagCollOSN+idx); err != nil {
		return err
	}
	var err error
	if off := w.osSlotOff(c.worldRank(from), idx); st.mine == nil {
		err = c.osCopyOut(off, st.in)
	} else if len(st.in) > 0 {
		err = c.rk.dev.foldView(c.p, c.ownView(), off, reduceFold{op: int32(x.op)}, x.dt, st.in, st.mine)
	}
	if err != nil {
		return err
	}
	return c.send(nil, 0, datatype.Byte, from, tagCollOSA+idx, c.ctx)
}
