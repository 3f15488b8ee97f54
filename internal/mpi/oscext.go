package mpi

import (
	"time"

	"scimpich/internal/sim"
	"scimpich/internal/smi"
)

// Extension surface for one-sided communication (the osc package): a
// remote-handler RPC (the paper's "internal control messages in conjunction
// with a remote interrupt ... to invoke a remote handler") plus access to
// the per-pair staging areas used to move emulated-put/get data with the
// standard transfer mechanisms.

// OSCHandler serves the one-sided requests that arrive at a rank (the osc
// package's remote handler). Its methods run on the rank's device process;
// src is the requesting rank.
type OSCHandler interface {
	// ServeCall serves an OSCCallTimeout request and returns the value that
	// travels back to the caller.
	ServeCall(p *sim.Proc, src int, req any) any
	// ServeNote serves an OSCNotify notification.
	ServeNote(p *sim.Proc, src, kind, win, round int)
}

// SetOSCHandler registers the handler of the one-sided requests arriving at
// this rank. A rank keeps one handler: requests name their window by an id
// that only the engine which created it knows, so a second engine would
// take over the first one's traffic. Registering the same handler again (on
// a new communicator) is legal; a different one panics.
func (c *Comm) SetOSCHandler(h OSCHandler) {
	if d := c.rk.dev; d.osc != nil && d.osc != h {
		panic("mpi: the rank already has a one-sided engine (one engine per rank)")
	}
	c.rk.dev.osc = h
}

// serveOSC hands a one-sided request to the rank's handler and sends a
// call's reply back.
func (d *device) serveOSC(p *sim.Proc, env *envelope) {
	if d.osc == nil {
		panic("mpi: one-sided request with no handler registered")
	}
	if env.reply == nil {
		d.osc.ServeNote(p, env.src, env.tag, env.ctx, env.chunk)
		return
	}
	reply := d.osc.ServeCall(p, env.src, env.osc)
	d.rk.w.ring(p, d.rk.id, env.src, envelope{
		kind: envOSCReply, src: d.rk.id, dst: env.src,
		osc: reply, reply: env.reply,
	}, false)
}

// oscReply unwraps a one-sided reply taken off its reply channel; the
// envelope ends here.
func (c *Comm) oscReply(v any) any {
	env := c.ctlEnvelope(v)
	reply := env.osc
	c.w.freeEnvelope(env)
	return reply
}

// OSCCallTimeout invokes the remote handler at target (a WORLD rank) with
// req and blocks until its reply arrives. interrupt selects the
// remote-interrupt delivery path (required when the target may not be
// polling — the passive-target case). If no reply arrives within timeout
// (virtual time) it returns the error of an expired wait — the revocation
// or connection error of a target that is gone, a *fault.Error of kind
// Timeout against one that is alive but silent. A timeout of 0 waits
// forever and cannot fail.
//
// The reply channel comes from a per-world free list under the rule of
// rdvSend: it goes back once its reply was read and nothing else is queued
// on it, and a call whose watchdog expired leaves it to the GC. A late
// reply therefore lands on a channel no later call waits on. The same rule
// is the caller's for req: once a call returned without error, the handler
// is done with it.
func (c *Comm) OSCCallTimeout(target int, req any, interrupt bool, timeout time.Duration) (any, error) {
	reply := sim.TakeFree(&c.w.oscReplyFree)
	c.countOSCDelivery(interrupt)
	c.w.ring(c.p, c.rk.id, target, envelope{
		kind: envOSC, src: c.rk.id, dst: target,
		osc: req, reply: reply,
	}, interrupt)
	var v any
	if timeout <= 0 {
		v = c.p.Recv(reply)
	} else {
		var ok bool
		if v, ok = c.p.RecvTimeout(reply, timeout); !ok {
			return nil, c.watchdogExpired(target)
		}
	}
	if reply.Len() == 0 {
		c.w.oscReplyFree = append(c.w.oscReplyFree, reply)
	}
	return c.oscReply(v), nil
}

// OSCNotify invokes the remote handler's ServeNote without waiting for a
// reply. A notification is three integers, which the envelope carries in its
// own fields: with no reply to mark when the handler is done with a request
// record, it has none to allocate.
func (c *Comm) OSCNotify(target, kind, win, round int, interrupt bool) {
	c.countOSCDelivery(interrupt)
	c.w.ring(c.p, c.rk.id, target, envelope{
		kind: envOSC, src: c.rk.id, dst: target,
		tag: kind, ctx: win, chunk: round,
	}, interrupt)
}

// countOSCDelivery records which delivery path a one-sided request used
// (mpi.osc.calls{delivery=interrupt|poll}): interrupt delivery is required
// whenever the target may not be polling — including shared-window targets
// whose direct view has degraded mid-epoch.
func (c *Comm) countOSCDelivery(interrupt bool) {
	if interrupt {
		c.w.stats.OSCInterrupt++
	} else {
		c.w.stats.OSCPolled++
	}
}

// OSCStage returns the calling rank's sender-side view of the one-sided
// staging area toward target (a WORLD rank), with its offset and size, and
// the mutex serializing its use.
func (c *Comm) OSCStage(target int) (mem smi.Mem, off, size int64, lock *sim.Mutex) {
	out := &c.rk.out[target]
	return out.mem, c.w.oscOff(), oscBuf, &out.oscLock
}

// OSCStageLocal returns this rank's local (receive-side) view of the
// staging area written by origin src. The remote handler drains emulated
// puts from here and deposits emulated-get data into it.
func (c *Comm) OSCStageLocal(src int) (mem smi.Mem, off int64) {
	return c.rk.ports[src].mem, c.w.oscOff()
}
