package mpi

import (
	"scimpich/internal/datatype"
)

// Variable-count collectives (the v-variants): each rank contributes or
// receives a different number of elements.

// Tags for the v-collectives.
const (
	tagGatherv  = 10 << 20
	tagScatterv = 11 << 20
	tagAgatherv = 12 << 20
)

// checkV validates counts/displs against the communicator size.
func (c *Comm) checkV(call string, counts, displs []int) error {
	if len(counts) != c.Size() || len(displs) != c.Size() {
		return argErrf(call, "%d counts / %d displs for %d ranks",
			len(counts), len(displs), c.Size())
	}
	return nil
}

// blockLayout places the per-rank blocks of a gather-family buffer: rank
// r's block holds counts[r] elements at element displacement displs[r], or,
// for the regular collectives (counts nil), count elements at r*count. The
// regular and the v-variant of a collective run one body over it.
type blockLayout struct {
	counts, displs []int
	count          int
}

// block returns the element count of rank r's block and its byte range in
// a buffer of es-byte elements.
func (l blockLayout) block(r int, es int64) (n int, lo, hi int64) {
	if l.counts == nil {
		lo = int64(r) * int64(l.count) * es
		return l.count, lo, lo + int64(l.count)*es
	}
	lo = int64(l.displs[r]) * es
	return l.counts[r], lo, lo + int64(l.counts[r])*es
}

// gather is the body of Gather and Gatherv: a non-root rank sends its
// count elements, the root copies its own block and posts all receives up
// front and then waits, so senders complete concurrently instead of being
// drained one rank at a time.
func (c *Comm) gather(send []byte, count int, dt *datatype.Type, recv []byte, lay blockLayout, root, tag int) error {
	if c.Rank() != root {
		return c.send(send, count, dt, root, tag, c.ctx)
	}
	es := dt.Size()
	_, lo, hi := lay.block(root, es)
	copy(recv[lo:], send[:hi-lo])
	reqs := make([]*Request, c.Size())
	for r := range reqs {
		if r == root {
			continue
		}
		n, lo, hi := lay.block(r, es)
		reqs[r] = c.irecvColl(recv[lo:hi], n, dt, r, tag)
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

// scatter is the body of Scatter and Scatterv: a non-root rank receives
// its count elements, the root copies its own block and sends every other
// rank's in rank order.
func (c *Comm) scatter(send []byte, lay blockLayout, dt *datatype.Type, recv []byte, count int, root, tag int) error {
	if c.Rank() != root {
		return c.recvColl(recv, count, dt, root, tag)
	}
	es := dt.Size()
	_, lo, hi := lay.block(root, es)
	copy(recv, send[lo:hi])
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		n, lo, hi := lay.block(r, es)
		if err := c.send(send[lo:hi], n, dt, r, tag, c.ctx); err != nil {
			return err
		}
	}
	return nil
}

// allgatherRing is the point-to-point body of Allgather and Allgatherv, run
// once every rank's own block is in recv: size-1 steps, each forwarding
// the block received last to the right neighbour while taking the next one
// from the left, on tags tag, tag+1, ...
func (c *Comm) allgatherRing(recv []byte, dt *datatype.Type, lay blockLayout, tag int) error {
	size, me, es := c.Size(), c.Rank(), dt.Size()
	right := (me + 1) % size
	left := (me - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sn, slo, shi := lay.block((me-step+size)%size, es)
		rn, rlo, rhi := lay.block((me-step-1+size)%size, es)
		if err := c.sendrecvColl(
			recv[slo:shi], sn, dt, right, tag+step,
			recv[rlo:rhi], rn, dt, left, tag+step,
		); err != nil {
			return err
		}
	}
	return nil
}

// alltoallPairwise is the point-to-point body of Alltoall and Alltoallv,
// run once every rank's own block is in recv: in step s each rank sends to
// the rank s to its right and receives from the rank s to its left, on tags
// tag+1, tag+2, ...
func (c *Comm) alltoallPairwise(send []byte, slay blockLayout, dt *datatype.Type, recv []byte, rlay blockLayout, tag int) error {
	size, me, es := c.Size(), c.Rank(), dt.Size()
	for step := 1; step < size; step++ {
		to := (me + step) % size
		from := (me - step + size) % size
		sn, slo, shi := slay.block(to, es)
		rn, rlo, rhi := rlay.block(from, es)
		if err := c.sendrecvColl(
			send[slo:shi], sn, dt, to, tag+step,
			recv[rlo:rhi], rn, dt, from, tag+step,
		); err != nil {
			return err
		}
	}
	return nil
}

// Gatherv collects counts[r] elements from each rank r into recv at
// element displacement displs[r] on root (MPI_Gatherv).
func (c *Comm) Gatherv(send []byte, count int, dt *datatype.Type, recv []byte, counts, displs []int, root int) error {
	if err := c.checkRank("Gatherv", "root", root); err != nil {
		return err
	}
	op := c.collBegin(collGatherv, CollP2P, dt.Size()*int64(count))
	if c.Rank() == root {
		if err := c.checkV("Gatherv", counts, displs); err != nil {
			return op.end(err)
		}
	}
	return op.end(c.collective().gather(send, count, dt, recv, blockLayout{counts: counts, displs: displs}, root, tagGatherv))
}

// Scatterv distributes counts[r] elements from send (at displacement
// displs[r], on root) to each rank r's recv buffer (MPI_Scatterv).
func (c *Comm) Scatterv(send []byte, counts, displs []int, dt *datatype.Type, recv []byte, count int, root int) error {
	if err := c.checkRank("Scatterv", "root", root); err != nil {
		return err
	}
	op := c.collBegin(collScatterv, CollP2P, dt.Size()*int64(count))
	if c.Rank() == root {
		if err := c.checkV("Scatterv", counts, displs); err != nil {
			return op.end(err)
		}
	}
	return op.end(c.collective().scatter(send, blockLayout{counts: counts, displs: displs}, dt, recv, count, root, tagScatterv))
}

// Allgatherv collects counts[r] elements from every rank into every rank's
// recv buffer at displacement displs[r] (MPI_Allgatherv; ring algorithm).
func (c *Comm) Allgatherv(send []byte, count int, dt *datatype.Type, recv []byte, counts, displs []int) error {
	if err := c.checkV("Allgatherv", counts, displs); err != nil {
		return err
	}
	lay := blockLayout{counts: counts, displs: displs}
	es := dt.Size()
	_, lo, hi := lay.block(c.Rank(), es)
	copy(recv[lo:], send[:hi-lo])
	if c.Size() == 1 {
		return nil
	}
	op := c.collBegin(collAgatherv, CollP2P, es*int64(count))
	return op.end(c.collective().allgatherRing(recv, dt, lay, tagAgatherv))
}
