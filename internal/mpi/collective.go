package mpi

import (
	"time"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/pack"
)

// Collective operations, built on point-to-point messaging and one-sided
// window deposits in a separate communicator context so they never match
// user traffic. Every collective returns its failures as typed errors
// (invalid arguments as *ArgumentError, transfer failures as the
// send/receive error taxonomy, expired CollTimeout watchdogs as
// sci.ErrConnectionLost / fault.Timeout). Algorithm selection happens in
// collalg.go.

// Tags for collective phases.
const (
	tagBarrier = 1 << 20
	tagBcast   = 2 << 20
	tagReduce  = 3 << 20
	tagGather  = 4 << 20
)

// checkRank validates a rank argument; role names it ("root", "destination").
func (c *Comm) checkRank(call, role string, r int) error {
	if r < 0 || r >= c.Size() {
		return argErrf(call, "%s %d out of range for %d ranks", role, r, c.Size())
	}
	return nil
}

// waitColl awaits an internal collective receive, bounded by CollTimeout
// (AutoTimeout scales the bound with the world; see timeouts.go): an
// expired wait surfaces as sci.ErrConnectionLost when the awaited peer's
// node is down, a *RevokedRankError when it was revoked, or a *fault.Error
// of kind Timeout otherwise.
func (c *Comm) waitColl(r *Request) error {
	_, err := c.finishRecv(r, c.rk.w.collTimeoutEff())
	return err
}

// irecvColl posts a collective-internal receive. Its Request (and the
// Status inside) never reaches the user, so finishRecv, its last reader,
// recycles it through the world's free list.
func (c *Comm) irecvColl(buf []byte, count int, dt *datatype.Type, src, tag int) *Request {
	return c.irecvFold(buf, nil, count, dt, 0, false, src, tag)
}

// recvColl is the internal collective receive: irecvColl + waitColl.
func (c *Comm) recvColl(buf []byte, count int, dt *datatype.Type, src, tag int) error {
	return c.waitColl(c.irecvColl(buf, count, dt, src, tag))
}

// sendrecvColl is the deadlock-free internal exchange of the ring and
// doubling algorithms, with the receive side under the watchdog.
func (c *Comm) sendrecvColl(sendBuf []byte, sendCount int, sendType *datatype.Type, dst, sendTag int,
	recvBuf []byte, recvCount int, recvType *datatype.Type, src, recvTag int) error {
	r := c.irecvColl(recvBuf, recvCount, recvType, src, recvTag)
	if err := c.send(sendBuf, sendCount, sendType, dst, sendTag, c.ctx); err != nil {
		return err
	}
	return c.waitColl(r)
}

// Barrier blocks until every rank has entered it (dissemination algorithm,
// log2(P) rounds of zero-byte messages).
func (c *Comm) Barrier() error {
	if c.Size() == 1 {
		return nil
	}
	op := c.collBegin(collBarrier, CollP2P, 0)
	return op.end(c.collective().barrierDissemination(tagBarrier, c.rk.w.collTimeoutEff()))
}

// barrierDissemination runs the log2(P) rounds of zero-byte messages on
// tags tag, tag+1, ..., each wait bounded by timeout (0: forever).
func (c *Comm) barrierDissemination(tag int, timeout time.Duration) error {
	size := c.Size()
	me := c.Rank()
	for round, dist := 0, 1; dist < size; round, dist = round+1, dist*2 {
		to := (me + dist) % size
		from := (me - dist + size) % size
		r := c.irecvColl(nil, 0, datatype.Byte, from, tag+round)
		if err := c.send(nil, 0, datatype.Byte, to, tag+round, c.ctx); err != nil {
			return err
		}
		if _, err := c.finishRecv(r, timeout); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts count elements of dt from root to every rank. The
// engine picks between the binomial tree over point-to-point messages and
// the chunk-pipelined one-sided tree over window deposits.
func (c *Comm) Bcast(buf []byte, count int, dt *datatype.Type, root int) error {
	if err := c.checkRank("Bcast", "root", root); err != nil {
		return err
	}
	if err := CheckBuffer("Bcast", "buffer", buf, count, dt); err != nil {
		return err
	}
	size := c.Size()
	if size == 1 {
		return nil
	}
	bytes := dt.Size() * int64(count)
	alg := c.chooseCollAlg(collBcast, size, bytes, bytes)
	op := c.collBegin(collBcast, alg, bytes)
	cc := c.collective()
	if alg != CollOneSided {
		return op.end(cc.bcastBinomial(buf, count, dt, root))
	}
	if dt.Contiguous() {
		return op.end(cc.bcastOneSided(buf[:bytes], root))
	}
	// Non-contiguous payloads travel as their ff linearization: the root
	// packs, everyone else unpacks after the contiguous broadcast.
	lin := bufpool.Get(int(bytes))
	if c.Rank() == root {
		_, st := pack.FFPack(lin, buf, dt, count, 0, -1)
		c.rk.w.chargeBlocks(c.p, c.rk.node, st, true)
	}
	err := cc.bcastOneSided(lin.B, root)
	if err == nil {
		if c.Rank() != root {
			_, st := pack.FFUnpack(buf, lin.B, dt, count, 0, -1)
			c.rk.w.chargeBlocks(c.p, c.rk.node, st, true)
		}
		lin.Put() // a failed broadcast may still have a receive posted on it
	}
	return op.end(err)
}

func (c *Comm) bcastBinomial(buf []byte, count int, dt *datatype.Type, root int) error {
	size := c.Size()
	vrank := (c.Rank() - root + size) % size
	// Receive from the parent, then forward to the children.
	for k := 0; k < ceilLog2(size); k++ {
		peer, parent := binomialPeer(vrank, k, size)
		if peer < 0 {
			continue
		}
		var err error
		if parent {
			err = c.recvColl(buf, count, dt, (peer+root)%size, tagBcast)
		} else {
			err = c.send(buf, count, dt, (peer+root)%size, tagBcast, c.ctx)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// binomialPeer returns the peer of vrank (a rank counted from the root) at
// step k of the binomial tree over size ranks, top down, and whether it is
// vrank's parent. Step k addresses bit b = top>>k, top the highest power of
// two below size: vrank receives from its parent at the step of its lowest
// set bit, and sends to its child vrank|b at each later step while that is
// a rank. -1: vrank idles at step k. Reductions walk the same tree bottom
// up.
func binomialPeer(vrank, k, size int) (peer int, parent bool) {
	top := 1
	for top*2 < size {
		top *= 2
	}
	bit := top >> k
	switch {
	case bit == 0:
		return -1, false
	case vrank&bit != 0 && vrank&(bit-1) == 0:
		return vrank &^ bit, true
	case vrank&(2*bit-1) == 0 && vrank|bit < size:
		return vrank | bit, false
	}
	return -1, false
}

// Reduce combines count elements of dt from every rank with op, leaving
// the result in recv on root (recv may be nil elsewhere). send must hold
// the rank's contribution. Derived datatypes reduce through their ff
// linearization as long as all leaves share one basic type (binomial fold
// over the base-typed reduction views).
func (c *Comm) Reduce(send, recv []byte, count int, dt *datatype.Type, op Op, root int) error {
	if err := c.checkRank("Reduce", "root", root); err != nil {
		return err
	}
	base, err := checkReduce("Reduce", dt, op)
	if err == nil {
		err = CheckBuffer("Reduce", "send buffer", send, count, dt)
	}
	if err == nil && c.Rank() == root {
		err = CheckBuffer("Reduce", "receive buffer", recv, count, dt)
		if err == nil {
			err = checkOverlap("Reduce", send, recv, count, dt)
		}
	}
	if err != nil {
		return err
	}
	bytes := dt.Size() * int64(count)
	cop := c.collBegin(collReduce, CollP2P, bytes)
	var result []byte // only the root keeps one
	if c.Rank() == root {
		result = recv
	}
	view := c.newReduceView(send, result, count, dt, base)
	view.fill()
	if c.Size() > 1 {
		if err := c.collective().reduceBinomial(view.buf, view.elems, base, op, root); err != nil {
			return cop.end(err)
		}
	}
	if c.Rank() == root {
		view.writeback(c, recv, count, dt)
	}
	view.release()
	return cop.end(nil)
}

// reduceBinomial folds the base-typed views up the binomial tree to root:
// receive from children, each partial folded into acc where it lands, then
// send to the parent.
func (c *Comm) reduceBinomial(acc []byte, elems int, base *datatype.Type, op Op, root int) error {
	size := c.Size()
	vrank := (c.Rank() - root + size) % size
	for k := ceilLog2(size) - 1; k >= 0; k-- {
		peer, parent := binomialPeer(vrank, k, size)
		if peer < 0 {
			continue
		}
		peer = (peer + root) % size
		if parent {
			return c.send(acc, elems, base, peer, tagReduce, c.ctx)
		}
		if err := c.waitColl(c.irecvFold(acc, acc, elems, base, op, false, peer, tagReduce)); err != nil {
			return err
		}
	}
	return nil
}

// Allreduce leaves op over every rank's send buffer in every rank's recv
// buffer. The engine picks among reduce+bcast (small messages), recursive
// doubling, the bandwidth-optimal ring (reduce-scatter + allgather), and
// the ring over one-sided window deposits; all variants run on the
// contiguous base-typed views, so derived datatypes work everywhere.
func (c *Comm) Allreduce(send, recv []byte, count int, dt *datatype.Type, op Op) error {
	base, err := checkReduce("Allreduce", dt, op)
	if err == nil {
		err = CheckBuffer("Allreduce", "send buffer", send, count, dt)
	}
	if err == nil {
		err = CheckBuffer("Allreduce", "receive buffer", recv, count, dt)
	}
	if err == nil {
		err = checkOverlap("Allreduce", send, recv, count, dt)
	}
	if err != nil {
		return err
	}
	bytes := dt.Size() * int64(count)
	size := c.Size()
	view := c.newReduceView(send, recv, count, dt, base)
	if size == 1 {
		view.fill()
		view.writeback(c, recv, count, dt)
		view.release()
		return nil
	}
	alg := c.chooseCollAlg(collAllreduce, size, bytes, bytes)
	cop := c.collBegin(collAllreduce, alg, bytes)
	cc := c.collective()
	switch alg {
	case CollRecDbl:
		err = cc.allreduceRecDbl(view.src, view.buf, view.elems, base, op)
	case CollRing:
		err = cc.allreduceRing(view.src, view.buf, view.elems, base, op, false)
	case CollOneSided:
		err = cc.allreduceRing(view.src, view.buf, view.elems, base, op, true)
	default:
		// Reduce to rank 0, then broadcast, both on the packed view.
		view.fill()
		err = cc.reduceBinomial(view.buf, view.elems, base, op, 0)
		if err == nil {
			err = cc.bcastBinomial(view.buf, view.elems, base, 0)
		}
	}
	if err == nil {
		view.writeback(c, recv, count, dt)
		view.release()
	}
	return cop.end(err)
}

// Gather collects each rank's send buffer into recv at root, ordered by
// rank (recv needs size*count elements at root; ignored elsewhere).
func (c *Comm) Gather(send []byte, count int, dt *datatype.Type, recv []byte, root int) error {
	if err := c.checkRank("Gather", "root", root); err != nil {
		return err
	}
	if err := CheckBuffer("Gather", "send buffer", send, count, dt); err != nil {
		return err
	}
	if c.Rank() == root {
		if err := CheckBuffer("Gather", "receive buffer", recv, c.Size()*count, dt); err != nil {
			return err
		}
	}
	op := c.collBegin(collGather, CollP2P, dt.Size()*int64(count))
	return op.end(c.collective().gather(send, count, dt, recv, root))
}

// gather is the body of Gather: a non-root rank sends its count elements,
// the root copies its own block and posts all receives up front and then
// waits, so senders complete concurrently instead of being drained one
// rank at a time.
func (c *Comm) gather(send []byte, count int, dt *datatype.Type, recv []byte, root int) error {
	if c.Rank() != root {
		return c.send(send, count, dt, root, tagGather, c.ctx)
	}
	block := dt.Size() * int64(count)
	copy(recv[int64(root)*block:], send[:block])
	reqs := make([]*Request, c.Size())
	for r := range reqs {
		if r == root {
			continue
		}
		reqs[r] = c.irecvColl(recv[int64(r)*block:int64(r+1)*block], count, dt, r, tagGather)
	}
	for _, req := range reqs {
		if req == nil {
			continue
		}
		if err := c.waitColl(req); err != nil {
			return err
		}
	}
	return nil
}
