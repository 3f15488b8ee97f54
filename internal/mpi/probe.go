package mpi

import (
	"scimpich/internal/sim"
)

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
