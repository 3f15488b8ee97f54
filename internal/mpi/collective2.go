package mpi

import (
	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
)

// Additional collectives: allgather, all-to-all, scan and
// reduce-scatter, plus request helpers.

// Tags for the second collective group.
const (
	tagAllgather = 6 << 20
	tagAlltoall  = 7 << 20
	tagScan      = 8 << 20
	tagRedScat   = 9 << 20
)

// Allgather collects every rank's count elements of dt into recv (ordered
// by rank) on all ranks. The engine picks between the ring over
// point-to-point messages and the one-shot window exchange (every rank
// deposits its block into every peer's slot directly).
func (c *Comm) Allgather(send []byte, count int, dt *datatype.Type, recv []byte) error {
	size := c.Size()
	me := c.Rank()
	bytes := dt.Size() * int64(count)
	copy(recv[int64(me)*bytes:], send[:bytes])
	if size == 1 {
		return nil
	}
	alg := c.chooseCollAlg(collAllgather, size, int64(size)*bytes, bytes)
	op := c.collBegin(collAllgather, alg, int64(size)*bytes)
	cc := c.collective()
	if alg == CollOneSided {
		return op.end(cc.osExchange(
			func(int) []byte { return recv[int64(me)*bytes : int64(me+1)*bytes] },
			func(src int) []byte { return recv[int64(src)*bytes : int64(src+1)*bytes] },
		))
	}
	return op.end(cc.allgatherRing(recv, dt, blockLayout{count: count}, tagAllgather))
}

// Alltoall sends the i-th count-element slice of send to rank i and
// receives rank i's slice into the i-th slot of recv (pairwise exchange,
// or the one-sided window exchange when the per-peer block fits a slot and
// the cost model favours it).
func (c *Comm) Alltoall(send []byte, count int, dt *datatype.Type, recv []byte) error {
	size := c.Size()
	me := c.Rank()
	bytes := dt.Size() * int64(count)
	copy(recv[int64(me)*bytes:int64(me+1)*bytes], send[int64(me)*bytes:int64(me+1)*bytes])
	if size == 1 {
		return nil
	}
	alg := c.chooseCollAlg(collAlltoall, size, int64(size)*bytes, bytes)
	op := c.collBegin(collAlltoall, alg, int64(size)*bytes)
	cc := c.collective()
	if alg == CollOneSided {
		return op.end(cc.osExchange(
			func(dst int) []byte { return send[int64(dst)*bytes : int64(dst+1)*bytes] },
			func(src int) []byte { return recv[int64(src)*bytes : int64(src+1)*bytes] },
		))
	}
	lay := blockLayout{count: count}
	return op.end(cc.alltoallPairwise(send, lay, dt, recv, lay, tagAlltoall))
}

// Scan computes the inclusive prefix reduction: recv on rank r holds
// op(send_0, ..., send_r). Linear algorithm on the base-typed views:
// receive from the left, fold, forward to the right.
func (c *Comm) Scan(send, recv []byte, count int, dt *datatype.Type, op Op) error {
	base, err := checkReduceDT("Scan", dt)
	if err != nil {
		return err
	}
	bytes := dt.Size() * int64(count)
	cop := c.collBegin(collScan, CollP2P, bytes)
	cc := c.collective()
	view := c.newReduceView(send, recv, count, dt, base)
	me := c.Rank()
	if me > 0 {
		prev := bufpool.Get(int(bytes)) // back unless the receive failed on it
		if err := cc.recvColl(prev.B, view.elems, base, me-1, tagScan); err != nil {
			return cop.end(err)
		}
		// Combine with the running prefix from the left, preserving
		// left-to-right order: acc = prefix op mine.
		c.combineColl(op, base, prev.B, view.buf, view.elems)
		copy(view.buf, prev.B)
		prev.Put()
	}
	if me < c.Size()-1 {
		if err := cc.send(view.buf, view.elems, base, me+1, tagScan, cc.ctx); err != nil {
			return cop.end(err)
		}
	}
	view.writeback(c, recv, count, dt)
	view.release()
	return cop.end(nil)
}

// ReduceScatterBlock reduces size*count elements elementwise across all
// ranks and scatters equal count-element blocks: rank r receives the
// reduction of everyone's r-th block (Reduce + Scatter).
func (c *Comm) ReduceScatterBlock(send, recv []byte, count int, dt *datatype.Type, op Op) error {
	size := c.Size()
	total := count * size
	var full []byte
	if c.Rank() == 0 {
		full = make([]byte, dt.Size()*int64(total))
	}
	if err := c.Reduce(send, full, total, dt, op, 0); err != nil {
		return err
	}
	return c.Scatter(full, count, dt, recv, 0)
}

// Waitall blocks until every request has completed, returning the statuses
// (nil entries for sends) and the first error encountered (all requests are
// drained either way).
func (c *Comm) Waitall(reqs []*Request) ([]*Status, error) {
	out := make([]*Status, len(reqs))
	var first error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := r.Wait()
		out[i] = st
		if err != nil && first == nil {
			first = err
		}
	}
	return out, first
}
