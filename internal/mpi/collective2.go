package mpi

import (
	"scimpich/internal/datatype"
)

// Additional collectives: allgather and all-to-all, plus request helpers.

// Tags for the second collective group.
const (
	tagAllgather = 6 << 20
	tagAlltoall  = 7 << 20
)

// Allgather collects every rank's count elements of dt into recv (ordered
// by rank) on all ranks. The engine picks between the ring over
// point-to-point messages and the one-shot window exchange (every rank
// deposits its block into every peer's slot directly).
func (c *Comm) Allgather(send []byte, count int, dt *datatype.Type, recv []byte) error {
	size := c.Size()
	if err := CheckBuffer("Allgather", "send buffer", send, count, dt); err != nil {
		return err
	}
	if err := CheckBuffer("Allgather", "receive buffer", recv, size*count, dt); err != nil {
		return err
	}
	if err := checkDense("Allgather", dt); err != nil {
		return err
	}
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
	p, _ := c.planColl(collAllgather, alg, size, int64(size)*bytes, bytes)
	return op.end(cc.runColl(p, &collCall{kind: collAllgather, acc: recv, count: count, dt: dt}))
}

// Alltoall sends the i-th count-element slice of send to rank i and
// receives rank i's slice into the i-th slot of recv (pairwise exchange,
// or the one-sided window exchange when the per-peer block fits a slot and
// the cost model favours it).
func (c *Comm) Alltoall(send []byte, count int, dt *datatype.Type, recv []byte) error {
	size := c.Size()
	if err := CheckBuffer("Alltoall", "send buffer", send, size*count, dt); err != nil {
		return err
	}
	if err := CheckBuffer("Alltoall", "receive buffer", recv, size*count, dt); err != nil {
		return err
	}
	if err := checkDense("Alltoall", dt); err != nil {
		return err
	}
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
	p, _ := c.planColl(collAlltoall, alg, size, int64(size)*bytes, bytes)
	return op.end(cc.runColl(p, &collCall{kind: collAlltoall, src: send, acc: recv, count: count, dt: dt}))
}

// checkDense refuses a datatype that is not contiguous: gather, allgather
// and alltoall cut their blocks at count*dt.Size() bytes of the buffers,
// which a derived layout does not follow.
func checkDense(call string, dt *datatype.Type) error {
	if !dt.Contiguous() {
		return argErrf(call, "datatype %s is not contiguous; %s moves dense blocks", dt, call)
	}
	return nil
}

// pairwisePeers returns whom rank me sends to and receives from at step s
// (1 <= s < size) of the pairwise exchange: the rank s to its right and the
// rank s to its left. The one-sided window exchange deposits in the same
// order.
func pairwisePeers(me, s, size int) (to, from int) { return (me + s) % size, (me - s + size) % size }

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
