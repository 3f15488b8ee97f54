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

// Gatherv collects counts[r] elements from each rank r into recv at
// element displacement displs[r] on root (MPI_Gatherv). It panics on
// failures; use GathervChecked under fault plans.
func (c *Comm) Gatherv(send []byte, count int, dt *datatype.Type, recv []byte, counts, displs []int, root int) {
	must(c.GathervChecked(send, count, dt, recv, counts, displs, root))
}

// GathervChecked is Gatherv returning failures as typed errors. The root
// posts all receives up front and then waits, so senders complete
// concurrently instead of being drained one rank at a time.
func (c *Comm) GathervChecked(send []byte, count int, dt *datatype.Type, recv []byte, counts, displs []int, root int) error {
	if err := c.checkRoot("Gatherv", root); err != nil {
		return err
	}
	cc := c.collective()
	es := dt.Size()
	op := c.collBegin(collGatherv, CollP2P, es*int64(count))
	if c.Rank() != root {
		return op.end(cc.send(send, count, dt, root, tagGatherv, cc.ctx))
	}
	if err := c.checkV("Gatherv", counts, displs); err != nil {
		return op.end(err)
	}
	copy(recv[int64(displs[root])*es:], send[:int64(counts[root])*es])
	reqs := make([]*Request, c.Size())
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		off := int64(displs[r]) * es
		reqs[r] = cc.irecvColl(recv[off:off+int64(counts[r])*es], counts[r], dt, r, tagGatherv)
	}
	for _, req := range reqs {
		if req == nil {
			continue
		}
		if err := cc.waitColl(req); err != nil {
			return op.end(err)
		}
	}
	return op.end(nil)
}

// Scatterv distributes counts[r] elements from send (at displacement
// displs[r], on root) to each rank r's recv buffer (MPI_Scatterv). It
// panics on failures; use ScattervChecked under fault plans.
func (c *Comm) Scatterv(send []byte, counts, displs []int, dt *datatype.Type, recv []byte, count int, root int) {
	must(c.ScattervChecked(send, counts, displs, dt, recv, count, root))
}

// ScattervChecked is Scatterv returning failures as typed errors.
func (c *Comm) ScattervChecked(send []byte, counts, displs []int, dt *datatype.Type, recv []byte, count int, root int) error {
	if err := c.checkRoot("Scatterv", root); err != nil {
		return err
	}
	cc := c.collective()
	es := dt.Size()
	op := c.collBegin(collScatterv, CollP2P, es*int64(count))
	if c.Rank() != root {
		return op.end(cc.recvColl(recv, count, dt, root, tagScatterv))
	}
	if err := c.checkV("Scatterv", counts, displs); err != nil {
		return op.end(err)
	}
	copy(recv, send[int64(displs[root])*es:int64(displs[root])*es+int64(counts[root])*es])
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		off := int64(displs[r]) * es
		if err := cc.send(send[off:off+int64(counts[r])*es], counts[r], dt, r, tagScatterv, cc.ctx); err != nil {
			return op.end(err)
		}
	}
	return op.end(nil)
}

// Allgatherv collects counts[r] elements from every rank into every rank's
// recv buffer at displacement displs[r] (MPI_Allgatherv; ring algorithm).
// It panics on failures; use AllgathervChecked under fault plans.
func (c *Comm) Allgatherv(send []byte, count int, dt *datatype.Type, recv []byte, counts, displs []int) {
	must(c.AllgathervChecked(send, count, dt, recv, counts, displs))
}

// AllgathervChecked is Allgatherv returning failures as typed errors.
func (c *Comm) AllgathervChecked(send []byte, count int, dt *datatype.Type, recv []byte, counts, displs []int) error {
	if err := c.checkV("Allgatherv", counts, displs); err != nil {
		return err
	}
	cc := c.collective()
	size := c.Size()
	me := c.Rank()
	es := dt.Size()
	copy(recv[int64(displs[me])*es:], send[:int64(counts[me])*es])
	if size == 1 {
		return nil
	}
	op := c.collBegin(collAgatherv, CollP2P, es*int64(count))
	right := (me + 1) % size
	left := (me - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sendIdx := (me - step + size) % size
		recvIdx := (me - step - 1 + size) % size
		so := int64(displs[sendIdx]) * es
		ro := int64(displs[recvIdx]) * es
		if err := cc.sendrecvColl(
			recv[so:so+int64(counts[sendIdx])*es], counts[sendIdx], dt, right, tagAgatherv+step,
			recv[ro:ro+int64(counts[recvIdx])*es], counts[recvIdx], dt, left, tagAgatherv+step,
		); err != nil {
			return op.end(err)
		}
	}
	return op.end(nil)
}
