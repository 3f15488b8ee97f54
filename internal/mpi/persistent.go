package mpi

import (
	"scimpich/internal/datatype"
)

// Persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start): fixed
// communication arguments reused across many iterations, the idiom of
// stencil halo loops.

// PersistentRequest is an inactive communication template.
type PersistentRequest struct {
	c      *Comm
	isSend bool
	buf    []byte
	count  int
	dt     *datatype.Type
	peer   int
	tag    int

	active *Request
}

// SendInit creates a persistent send request (MPI_Send_init).
func (c *Comm) SendInit(buf []byte, count int, dt *datatype.Type, dst, tag int) *PersistentRequest {
	return &PersistentRequest{c: c, isSend: true, buf: buf, count: count, dt: dt, peer: dst, tag: tag}
}

// RecvInit creates a persistent receive request (MPI_Recv_init).
func (c *Comm) RecvInit(buf []byte, count int, dt *datatype.Type, src, tag int) *PersistentRequest {
	return &PersistentRequest{c: c, isSend: false, buf: buf, count: count, dt: dt, peer: src, tag: tag}
}

// Start activates the request (MPI_Start). Starting an already-active
// request panics.
func (pr *PersistentRequest) Start() {
	if pr.active != nil {
		panic("mpi: Start on an active persistent request")
	}
	if pr.isSend {
		pr.active = pr.c.Isend(pr.buf, pr.count, pr.dt, pr.peer, pr.tag)
	} else {
		pr.active = pr.c.Irecv(pr.buf, pr.count, pr.dt, pr.peer, pr.tag)
	}
}

// Wait completes the active operation and returns the request to the
// inactive state (nil status for sends) and returns Request.Wait's error.
func (pr *PersistentRequest) Wait() (*Status, error) {
	if pr.active == nil {
		panic("mpi: Wait on an inactive persistent request")
	}
	st, err := pr.active.Wait()
	pr.active = nil
	return st, err
}

// Active reports whether the request has been started and not yet waited.
func (pr *PersistentRequest) Active() bool { return pr.active != nil }

// StartAll starts every request (MPI_Startall).
func StartAll(reqs []*PersistentRequest) {
	for _, r := range reqs {
		r.Start()
	}
}

// WaitAllPersistent completes every active request and returns the first
// error encountered (all requests are drained either way).
func WaitAllPersistent(reqs []*PersistentRequest) (first error) {
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Ssend is the synchronous send (MPI_Ssend): it completes only after the
// matching receive has been posted, implemented by always taking the
// rendezvous path regardless of message size. A send to itself (which
// would never complete) is an *ArgumentError.
func (c *Comm) Ssend(buf []byte, count int, dt *datatype.Type, dst, tag int) error {
	c.p.Sleep(callOverhead)
	if err := c.checkRank("Ssend", "destination", dst); err != nil {
		return err
	}
	worldDst := c.worldRank(dst)
	if worldDst == c.rk.id {
		return argErrf("Ssend", "synchronous send to self (rank %d) would deadlock", dst)
	}
	bytes := dt.Size() * int64(count)
	return c.sendRendezvous(buf, count, dt, worldDst, tag, c.ctx, bytes)
}

// Alltoallv is the variable-count all-to-all (MPI_Alltoallv; pairwise
// exchange): the slice for rank r starts at element sdispls[r] of send with
// sendCounts[r] elements, and symmetric for the receive side.
func (c *Comm) Alltoallv(send []byte, sendCounts, sdispls []int, dt *datatype.Type,
	recv []byte, recvCounts, rdispls []int) error {
	size := c.Size()
	if len(sendCounts) != size || len(sdispls) != size || len(recvCounts) != size || len(rdispls) != size {
		return argErrf("Alltoallv", "argument lengths %d/%d/%d/%d for %d ranks",
			len(sendCounts), len(sdispls), len(recvCounts), len(rdispls), size)
	}
	slay := blockLayout{counts: sendCounts, displs: sdispls}
	rlay := blockLayout{counts: recvCounts, displs: rdispls}
	me, es := c.Rank(), dt.Size()
	_, slo, shi := slay.block(me, es)
	_, rlo, rhi := rlay.block(me, es)
	copy(recv[rlo:rhi], send[slo:shi])
	return c.collective().alltoallPairwise(send, slay, dt, recv, rlay, tagAlltoall)
}
