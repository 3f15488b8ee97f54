package mpi

import (
	"fmt"

	"scimpich/internal/datatype"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// Explicit packing (MPI_Pack / MPI_Unpack / MPI_Pack_size): applications
// that assemble heterogeneous messages by hand use these; they run the
// canonical (definition-order) engine and charge local copy costs.

// PackSize returns the buffer space needed to pack count elements of dt
// (MPI_Pack_size). The canonical packed form carries no headers, so this
// equals the type's data size.
func PackSize(count int, dt *datatype.Type) int64 {
	return dt.Size() * int64(count)
}

// Pack appends count elements of dt from buf to out at *position,
// advancing the position (MPI_Pack). out must have space for
// PackSize(count, dt) bytes at the position.
func (c *Comm) Pack(buf []byte, count int, dt *datatype.Type, out []byte, position *int64) {
	if !dt.Committed() {
		panic(fmt.Sprintf("mpi: Pack with uncommitted datatype %s", dt))
	}
	need := PackSize(count, dt)
	if *position < 0 || *position+need > int64(len(out)) {
		panic(fmt.Sprintf("mpi: Pack of %d bytes at position %d overflows buffer of %d",
			need, *position, len(out)))
	}
	n, st := pack.GenericPack(out[*position:], buf, dt, count, 0, -1)
	c.rk.w.chargeBlocks(c.p, c.rk.node, st, false)
	*position += n
}

// Unpack consumes count elements of dt from in at *position into buf,
// advancing the position (MPI_Unpack).
func (c *Comm) Unpack(in []byte, position *int64, buf []byte, count int, dt *datatype.Type) {
	if !dt.Committed() {
		panic(fmt.Sprintf("mpi: Unpack with uncommitted datatype %s", dt))
	}
	need := PackSize(count, dt)
	if *position < 0 || *position+need > int64(len(in)) {
		panic(fmt.Sprintf("mpi: Unpack of %d bytes at position %d exceeds buffer of %d",
			need, *position, len(in)))
	}
	n, st := pack.GenericUnpack(buf, in[*position:*position+need], dt, count, 0, -1)
	c.rk.w.chargeBlocks(c.p, c.rk.node, st, false)
	*position += n
}

// Probe blocks until a message matching (src, tag) is available and
// returns its status without receiving it (MPI_Probe). src may be
// AnySource, tag AnyTag. The status Source is communicator-local.
func (c *Comm) Probe(src, tag int) *Status {
	c.p.Sleep(callOverhead)
	if src != AnySource {
		src = c.worldRank(src)
	}
	req := &probeReq{ctx: c.ctx, src: src, tag: tag, done: sim.NewFuture()}
	c.rk.dev.post(c.rk.w.newEnvelope(envelope{kind: envLocalProbe, probe: req}))
	st := *c.p.Await(req.done).(*Status)
	st.Source = c.localRank(st.Source)
	return &st
}

// Iprobe reports whether a matching message is available, without blocking
// (MPI_Iprobe). Returns (status, true) when one is queued.
func (c *Comm) Iprobe(src, tag int) (*Status, bool) {
	c.p.Sleep(callOverhead)
	if src != AnySource {
		src = c.worldRank(src)
	}
	req := &probeReq{ctx: c.ctx, src: src, tag: tag, immediate: true, done: sim.NewFuture()}
	c.rk.dev.post(c.rk.w.newEnvelope(envelope{kind: envLocalProbe, probe: req}))
	v := c.p.Await(req.done)
	if v == nil {
		return nil, false
	}
	st := *v.(*Status)
	st.Source = c.localRank(st.Source)
	return &st, true
}
