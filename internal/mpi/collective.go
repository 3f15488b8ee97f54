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
// tags tag, tag+1, ..., each wait bounded by timeout (0: forever). It keeps
// its own loop because the shrink agreement passes it a deadline of its
// own.
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
	p, _ := c.planColl(collBcast, alg, size, bytes, bytes)
	x := collCall{kind: collBcast, acc: buf, count: count, dt: dt, root: root}
	if !p.oneSided {
		return op.end(cc.runColl(p, &x))
	}
	if dt.Contiguous() {
		x.acc = buf[:bytes]
		return op.end(cc.runColl(p, &x))
	}
	// Non-contiguous payloads travel as their ff linearization: the root
	// packs, everyone else unpacks after the contiguous broadcast.
	lin := bufpool.Get(int(bytes))
	if c.Rank() == root {
		_, st := pack.FFPack(lin, buf, dt, count, 0, -1)
		c.rk.w.chargeBlocks(c.p, c.rk.node, st, true)
	}
	x.acc = lin.B
	err := cc.runColl(p, &x)
	if err == nil {
		if c.Rank() != root {
			_, st := pack.FFUnpack(buf, lin.B, dt, count, 0, -1)
			c.rk.w.chargeBlocks(c.p, c.rk.node, st, true)
		}
		lin.Put() // a failed broadcast may still have a receive posted on it
	}
	return op.end(err)
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
	if size := c.Size(); size > 1 {
		p, _ := c.planColl(collReduce, CollP2P, size, bytes, bytes)
		x := collCall{kind: collReduce, acc: view.buf, count: view.elems, dt: base, op: op, root: root}
		if err := c.collective().runColl(p, &x); err != nil {
			return cop.end(err)
		}
	}
	if c.Rank() == root {
		view.writeback(c, recv, count, dt)
	}
	view.release()
	return cop.end(nil)
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
	p, then := c.planColl(collAllreduce, alg, size, bytes, bytes)
	if p.sched == schedReduceTree {
		view.fill() // the tree folds into acc, which starts as the contribution
	}
	x := collCall{kind: collAllreduce, src: view.src, acc: view.buf, count: view.elems, dt: base, op: op}
	err = cc.runColl(p, &x)
	if err == nil {
		err = cc.runColl(then, &x)
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
	if err := checkDense("Gather", dt); err != nil {
		return err
	}
	op := c.collBegin(collGather, CollP2P, dt.Size()*int64(count))
	return op.end(c.collective().gather(send, count, dt, recv, root))
}

// gather is the body of Gather: a non-root rank sends its count elements,
// the root copies its own block and posts all receives up front and then
// waits, so senders complete concurrently instead of being drained one
// rank at a time. It keeps its own loop: no plan posts every receive first,
// and a kind with one family is never priced.
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
