package mpi

import (
	"unsafe"

	"scimpich/internal/datatype"
)

// The step executor: every collective whose order walk prices runs its
// plan (collPlan) in runColl, one loop for all of them. At step k a member
// takes its peers from the plan's schedule, asks the call's block rule
// (collCall.step) what the step sends, where the partial it takes lands
// and what that folds with, and runs the step on the plan's transport:
// point-to-point messages, or deposits into the peers' collective windows
// (collos.go). The rules that cut across families — folding a partial
// where it lands, in place, the exchange hold — live here once.
//
// Three collectives keep loops of their own, because no plan holds them:
// the one-sided window exchange (osExchange), whose deposits all run ahead
// of its takes; gather, which posts every receive up front; and the
// dissemination barrier, which the shrink agreement runs under a deadline
// of its own.

// Tags of the reduction schedules, each + step.
const (
	tagARecDbl = 13 << 20 // recursive doubling
	tagARing   = 14 << 20 // ring allreduce
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

// collCall is what runColl needs of one call besides its plan. src holds
// the member's contribution and acc the vector it ends with; they may be
// one buffer. A tree moves all of acc, count elements of dt; an allgather
// or alltoall block is count elements of dt; a reduction moves elements of
// dt, its base type, count of them in all, and folds with op. A rooted
// schedule counts members from root.
type collCall struct {
	kind     collKind
	src, acc []byte
	count    int
	dt       *datatype.Type
	op       Op
	root     int
}

// collStep is what one step moves for one member: out goes to the step's
// receiver, in takes the partial of its sender, folded with mine (nil:
// copied). A count is elements of the call's dt.
type collStep struct {
	out, in, mine []byte
	outN, inN     int
	tag           int
	mineLast      bool // op(partial, mine): the partial is the lower rank's
}

// peers returns whom member vme (counted from the root) receives from and
// sends to at step k of p, as ranks of the communicator (-1: none).
func (x *collCall) peers(p collPlan, vme, k, size int) (from, to int) {
	from, to = p.sched.peers(vme, k, size)
	if from >= 0 {
		from = (from + x.root) % size
	}
	if to >= 0 {
		to = (to + x.root) % size
	}
	return from, to
}

// step is the call's block rule: what member me moves at step k of p with
// the peers from and to. held is the vector the member holds: src until a
// partial landed, then acc.
func (x *collCall) step(p collPlan, me, size, k, from, to int, held []byte) collStep {
	st := collStep{out: x.acc, in: x.acc, outN: x.count, inN: x.count}
	switch p.sched {
	case schedBcastTree:
		st.tag = tagBcast
	case schedChunkTree:
		i := int64(k / p.sched.round(size))
		st.out = x.acc[i*p.n : min((i+1)*p.n, int64(len(x.acc)))]
		st.in = st.out
	case schedReduceTree:
		st.tag, st.mine = tagReduce, x.acc
	case schedRecDbl:
		st.tag, st.out, st.mine, st.mineLast = tagARecDbl+k, held, held, from < me
	case schedPairwise:
		b := x.dt.Size() * int64(x.count)
		st.tag = tagAlltoall + k + 1
		st.out, st.in = x.src[int64(to)*b:int64(to+1)*b], x.acc[int64(from)*b:int64(from+1)*b]
	case schedRing:
		if x.kind == collAllgather {
			// Forward the block received last, take the next one.
			b := x.dt.Size() * int64(x.count)
			s, r := int64((me-k+size)%size)*b, int64((me-k-1+size)%size)*b
			st.tag, st.out, st.in = tagAllgather+k, x.acc[s:s+b], x.acc[r:r+b]
			break
		}
		// Reduce-scatter for the first size-1 steps, after which member me
		// holds the complete reduction of block (me+1) mod size, then ring
		// allgather of the completed blocks, both on the shared rotation. A
		// reduce-scatter partial folds with the member's own block of its
		// index, which only src holds.
		es := x.dt.Size()
		send := ringSendBlock(me, k, size)
		recv := (send - 1 + size) % size
		st.tag = tagARing + k
		st.out = ringBlock(held, x.count, size, send, es)
		st.in = ringBlock(x.acc, x.count, size, recv, es)
		st.mine = ringBlock(x.src, x.count, size, recv, es)
		st.outN, st.inN = len(st.out)/int(es), len(st.in)/int(es)
	}
	if k >= p.combineSteps {
		st.mine = nil
	}
	return st
}

// runColl runs plan p of call x for this member, every step on the plan's
// transport; after window deposits it takes the last two acks from each
// peer it deposited to, so the slot halves are free for the next
// collective before this one returns. c must be the collective view.
func (c *Comm) runColl(p collPlan, x *collCall) error {
	size, me := c.Size(), c.Rank()
	vme := (me - x.root + size) % size
	round := p.sched.round(size)
	held := x.src
	for k := 0; k < p.steps; k++ {
		from, to := x.peers(p, vme, k, size)
		if from < 0 && to < 0 {
			continue
		}
		st := x.step(p, me, size, k, from, to, held)
		var err error
		if p.oneSided {
			err = c.osStep(from, to, k/round, &st, x)
		} else {
			// Only an exchange whose partial lands in the bytes it sends is
			// held: in place, or once the first partial landed in acc.
			hold := p.exchanges(from, to) && unsafe.SliceData(st.out) == unsafe.SliceData(st.in)
			err = c.p2pStep(from, to, &st, x, hold)
		}
		if err != nil {
			return err
		}
		if from >= 0 {
			held = x.acc
		}
	}
	if !p.oneSided {
		return nil
	}
	last := (p.steps - 1) / round
	for k := last * round; k < p.steps; k++ {
		if _, to := x.peers(p, vme, k, size); to >= 0 {
			for i := max(last-1, 0); i <= last; i++ {
				if err := c.recvColl(nil, 0, datatype.Byte, to, tagCollOSA+i); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// p2pStep runs one step on point-to-point messages: post the receive (a
// fold when the step has mine), send, then wait. Under hold the device
// keeps each chunk of the partial until the send has read the bytes it
// folds over (exchHold); the hold is on before the receive is posted, which
// may match a partial already there.
func (c *Comm) p2pStep(from, to int, st *collStep, x *collCall, hold bool) error {
	var h *exchHold
	if hold {
		if w := c.rk.w; w.holds == nil {
			w.holds = make([]exchHold, w.size)
		}
		h = c.rk.hold()
		h.buf, h.read = unsafe.SliceData(st.out), 0
	}
	var r *Request
	if from >= 0 {
		r = c.irecvFold(st.in, st.mine, st.inN, x.dt, x.op, st.mineLast, from, st.tag)
	}
	if to >= 0 {
		err := c.send(st.out, st.outN, x.dt, to, st.tag, c.ctx)
		if h != nil {
			h.buf = nil
			c.rk.dev.release(c.p) // what a failed send leaves parked
		}
		if err != nil {
			return err
		}
	}
	if r == nil {
		return nil
	}
	return c.waitColl(r)
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
// collective engine (the ring block rule) and the torus collective runtime
// (TorusWorld); the block received at step s is always the sent block's
// left neighbour, (ringSendBlock(me,s,size)-1+size) % size.
func ringSendBlock(me, s, size int) int {
	if s < size-1 {
		return ((me-s)%size + size) % size
	}
	return ((me+1-(s-(size-1)))%size + 2*size) % size
}
