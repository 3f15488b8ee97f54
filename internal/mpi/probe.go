package mpi

import (
	"scimpich/internal/sim"
)

// Probe blocks until a message matching (src, tag) is available and
// returns its status without receiving it (MPI_Probe). src may be
// AnySource, tag AnyTag. The status Source is communicator-local. A source
// outside the communicator is an *ArgumentError, and a revoked one a
// *RevokedRankError: no message can come from either.
func (c *Comm) Probe(src, tag int) (*Status, error) {
	st, _, err := c.probe("Probe", src, tag, false)
	return st, err
}

// Iprobe reports whether a matching message is available, without blocking
// (MPI_Iprobe). Returns (status, true) when one is queued. It refuses the
// sources Probe refuses.
func (c *Comm) Iprobe(src, tag int) (*Status, bool, error) {
	return c.probe("Iprobe", src, tag, true)
}

// probe is the body of Probe and Iprobe, which name themselves as call.
func (c *Comm) probe(call string, src, tag int, immediate bool) (*Status, bool, error) {
	peer, err := c.recvPeer(call, src)
	if err != nil {
		return nil, false, err
	}
	c.p.Sleep(callOverhead)
	req := &probeReq{ctx: c.ctx, src: peer, tag: tag, immediate: immediate, done: sim.NewFuture()}
	c.rk.dev.post(c.rk.w.newEnvelope(envelope{kind: envLocalProbe, probe: req}))
	v := c.p.Await(req.done)
	if v == nil {
		return nil, false, nil
	}
	st := *v.(*Status)
	st.Source = c.localRank(st.Source)
	return &st, true, nil
}
