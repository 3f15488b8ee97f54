package mpi

import (
	"fmt"
	"time"
	"unsafe"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/memmodel"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
	"scimpich/internal/smi"
)

// device is the per-rank communication engine: it receives control
// envelopes and posted receives (the moral equivalent of SCI-MPICH's control
// packet queues plus remote handler), performs message matching and executes
// the receive side of the short/eager/rendezvous protocols.
//
// It is a serial server. Items are handled one at a time in arrival order,
// each handlerLatency after the later of its arrival and the end of the
// previous handler. Most handlers only forward or bookkeep and run as event
// callbacks on the hosting queue; a handler that has to block — it takes a
// bus, reads a port through the interconnect or sends a reply — is continued
// on the daemon process p, inside the same event. The first such handler
// creates p (see resume): a device whose work never blocks has none.
type device struct {
	rk    *rank
	actor string // cached "dev<i>"
	p     *sim.Proc

	// inbox holds the arrived items awaiting service (*envelope, or the
	// *Request of a posted receive); busy is set from the arrival of an item
	// at an idle device until a handler ends with nothing queued.
	inbox sim.FIFO[any]
	busy  bool
	// cur is the item whose handler latency is running. req, env and span
	// are the matched receive a delivery is working on (for envRdvData and
	// envOSC, which match nothing, just env).
	cur  any
	req  *Request
	env  *envelope
	span *obs.Span

	posted     []*Request
	unexpected []*envelope
	probes     []*probeReq
	rdv        map[int64]*rdvRecv // made by the first rendezvous

	// lastSeq[src] is the highest envelope sequence number accepted from
	// src; lower-or-equal arrivals are injected duplicates and dropped
	// (exactly-once delivery under retransmission faults).
	lastSeq []int64

	// osc serves envOSC requests (registered by the osc package: the remote
	// handler that emulates direct access for private windows).
	osc OSCHandler

	stats DeviceStats
}

// DeviceStats is one rank's protocol activity: the live counters the device
// and the rank's sends bump, and what World.Stats returns by value. Plain
// integers suffice because at most one process of a host runs at a time
// (sim.Host), and every reader is such a process or runs after the run.
type DeviceStats struct {
	ShortRecvd  int64
	EagerRecvd  int64
	RdvRecvd    int64
	Unexpected  int64
	BytesRecvd  int64
	OSCRequests int64

	// Duplicates counts injected retransmissions dropped by the receive
	// side (sequence check or stale rendezvous chunk).
	Duplicates int64
	// SendRetries counts the retries of failed transfers (RetryTransfer):
	// deposits into eager slots, rendezvous chunks, collective windows and
	// one-sided staging areas, one-sided direct accesses and remote-put get
	// rounds.
	SendRetries int64
	// WatchdogExpiries counts the bounded waits of every layer that ran
	// out, once each (Comm.WatchdogExpired).
	WatchdogExpiries int64
	// RdvCancels counts rendezvous transfers torn down on the receive side
	// after the sender abandoned them (envRdvCancel).
	RdvCancels int64
	// DrainCombined counts the bytes of partials a reduction combined
	// where they landed (irecvFold, the one-sided ring's window): out of
	// a short packet, an eager slot, a rendezvous chunk or the window.
	DrainCombined int64
}

// rdvRecv tracks one in-progress rendezvous receive. It is the receiver's
// scratch record, recycled under the rule of rdvSend: back to the world's
// free list by the device once the last chunk is drained without an error,
// left to the GC by a cancelled or failed transfer.
type rdvRecv struct {
	req       *Request
	src, tag  int   // of the request envelope, which is freed once the CTS is out
	bytes     int64 // total message size
	mode      rdvMode
	received  int64
	nextChunk int
	// cur resumes the ff unpack across chunks (rdvFF mode only): each chunk
	// continues where the previous one stopped instead of re-running
	// find_position over the leaf list.
	cur pack.Cursor
	// err is the first failure draining a chunk out of the port (its
	// segment was revoked under the transfer). The receive has completed
	// with it; later chunks are acknowledged without being drained, so the
	// sender never waits on a slot this side has given up on.
	err error
}

// rdvMode selects the data engine for a rendezvous transfer.
type rdvMode int

const (
	rdvContig  rdvMode = iota // plain contiguous copy
	rdvFF                     // direct_pack_ff on both sides
	rdvGeneric                // pack / transfer / unpack baseline
)

// mem returns the node's memory-hierarchy model.
func (d *device) mem() *memmodel.Model { return d.rk.w.cfg.Shm.Mem }

func (d *device) now() time.Duration { return d.rk.w.host.Now() }

// post queues an arrived item. At an idle device the handler latency starts
// one zero-delay event later: the hop that waking a daemon used to be, kept
// as an event because same-instant events run in scheduling order and the
// handler's place in that order is part of the virtual-time contract.
func (d *device) post(item any) {
	if d.busy {
		d.inbox.Push(item)
		return
	}
	d.busy = true
	d.cur = item
	d.rk.w.host.AfterCall(0, deviceAdmit, d)
}

func deviceAdmit(arg any) {
	d := arg.(*device)
	d.rk.w.host.AfterCall(handlerLatency, deviceServe, d)
}

// next ends the current handler: the oldest queued item starts its handler
// latency now, or the device goes idle.
func (d *device) next() {
	d.cur, d.req, d.env, d.span = nil, nil, nil, nil
	if d.inbox.Len() == 0 {
		d.busy = false
		return
	}
	d.cur = d.inbox.Pop()
	deviceAdmit(d)
}

// deviceServe runs the handler of d.cur. Every handler ends in next: here
// for the kinds that need no stack, at the end of a later callback for a
// short message into a contiguous buffer (deviceShortCopied), and on the
// daemon process for the rest (run).
func deviceServe(arg any) {
	d := arg.(*device)
	if d.handle() {
		d.next()
	}
}

// handle serves d.cur and reports whether that finished the handler; if
// not, a delivery is under way that ends it.
func (d *device) handle() (finished bool) {
	w := d.rk.w
	if req, posted := d.cur.(*Request); posted {
		return d.handlePost(req)
	}
	env := d.cur.(*envelope)
	env.live()
	switch env.kind {
	case envShort, envEager, envRdvReq:
		return d.handleIncoming(env)
	case envRdvData, envOSC:
		d.env = env
		d.resume()
		return false
	case envRdvCancel:
		d.handleRdvCancel(env)
		w.freeEnvelope(env)
	case envLocalProbe:
		d.handleProbe(env.probe)
		w.freeEnvelope(env)
	case envRdvCTS, envRdvAck, envOSCReply:
		// Sender-side control: forward to the waiting operation, which frees
		// the envelope once it has read it.
		sim.Post(env.reply, env)
	case envEagerAck:
		// Return the eager slot credit to this rank's sender state.
		d.rk.out[env.src].credits.Release(env.slot)
		w.freeEnvelope(env)
	default:
		panic(fmt.Sprintf("mpi: device %d: unexpected envelope %v", d.rk.id, env.kind))
	}
	return true
}

// resume continues the handler of d.cur on the daemon process, inside the
// current event, with the work in d.req and d.env. The first call creates the
// daemon, whose body starts right here.
func (d *device) resume() {
	if d.p == nil {
		d.p = d.rk.w.host.GoDaemon(d.actor, deviceMain)
		d.p.SetArg(d)
	}
	d.p.Resume()
}

// deviceMain starts a device's daemon: a top-level function, where the
// method value d.run would be a closure per device.
func deviceMain(p *sim.Proc) { p.TakeArg().(*device).run(p) }

// run is the daemon process: the part of a handler that blocks. Each resume
// serves one item and parks.
func (d *device) run(p *sim.Proc) {
	for {
		req, env := d.req, d.env
		kept := false
		switch env.kind {
		case envShort:
			d.unpackShort(p, req, env)
		case envEager:
			d.deliverEager(p, req, env)
			d.span.End(p.Now())
		case envRdvReq:
			d.startRendezvous(p, req, env)
		case envRdvData:
			kept = d.handleRdvData(p, env)
		case envOSC:
			d.stats.OSCRequests++
			d.serveOSC(p, env)
		}
		// Every kind that reaches the daemon ends at this device, a parked
		// chunk once it is released.
		if !kept {
			d.rk.w.freeEnvelope(env)
		}
		d.next()
		p.Park()
	}
}

// handlePost processes a locally posted receive: delivered from the
// unexpected queue, or (finished) queued as posted.
func (d *device) handlePost(req *Request) (finished bool) {
	for i, env := range d.unexpected {
		if req.matches(env.src, env.tag, env.ctx) {
			d.unexpected = append(d.unexpected[:i], d.unexpected[i+1:]...)
			return d.deliver(req, env)
		}
	}
	d.posted = append(d.posted, req)
	return true
}

// handleIncoming processes a fresh message-bearing envelope: delivered to a
// posted receive, or (finished) dropped as a duplicate or queued as
// unexpected.
func (d *device) handleIncoming(env *envelope) (finished bool) {
	if env.seq != 0 {
		if env.seq <= d.lastSeq[env.src] {
			d.stats.Duplicates++
			d.rk.fl.Record(d.now(), flight.KPacketDrop, int64(env.kind), int64(env.src), flight.DropDuplicate, env.seq)
			d.rk.w.freeEnvelope(env)
			return true
		}
		d.lastSeq[env.src] = env.seq
	}
	for i, req := range d.posted {
		if req.matches(env.src, env.tag, env.ctx) {
			d.posted = append(d.posted[:i], d.posted[i+1:]...)
			return d.deliver(req, env)
		}
	}
	d.stats.Unexpected++
	d.unexpected = append(d.unexpected, env)
	// Wake blocking probes that match the new arrival.
	for i, pr := range d.probes {
		if pr.matches(env.src, env.tag, env.ctx) {
			d.probes = append(d.probes[:i], d.probes[i+1:]...)
			pr.done.Complete(&Status{Source: env.src, Tag: env.tag, Bytes: env.bytes})
			break
		}
	}
	return true
}

// handleProbe answers a probe from the unexpected queue.
func (d *device) handleProbe(pr *probeReq) {
	for _, env := range d.unexpected {
		if pr.matches(env.src, env.tag, env.ctx) {
			pr.done.Complete(&Status{Source: env.src, Tag: env.tag, Bytes: env.bytes})
			return
		}
	}
	if pr.immediate {
		pr.done.Complete(nil)
		return
	}
	d.probes = append(d.probes, pr)
}

// deliver starts the receive side of a matched message. A short message
// into a contiguous buffer is one copy (or fold) after one fixed delay and
// finishes in a second callback; everything else blocks and goes to the
// daemon. A short or eager partial that would fold over bytes the rank's
// own send has yet to read is parked instead (finished: exchHold).
func (d *device) deliver(req *Request, env *envelope) (finished bool) {
	now := d.now()
	d.rk.fl.Record(now, flight.KRecvMatch, int64(env.src), int64(env.tag), env.bytes, int64(env.kind))
	d.checkSignature(req, env)
	if h := d.rk.hold(); env.kind != envRdvReq && h.holds(req, 0) {
		h.parked = append(h.parked, parkedMsg{req, env})
		return true
	}
	d.req, d.env = req, env
	if env.kind != envRdvReq {
		d.span = d.rk.w.cfg.Tracer.StartSpan(now, d.actor, "recv", env.kind.String()) // "short" or "eager"
		d.span.SetBytes(env.bytes)
	}
	if env.kind == envShort && req.dt.Contiguous() {
		d.acceptShort(req, env)
		d.rk.w.host.AfterCall(d.shortCopyCost(req, env), deviceShortCopied, d)
		return false
	}
	d.resume()
	return false
}

// shortCopyCost is the time a short message takes to copy (or fold) into
// a contiguous receive.
func (d *device) shortCopyCost(req *Request, env *envelope) time.Duration {
	return d.mem().CopyCost(env.bytes, env.bytes, foldWS(env.bytes, req.fold.mine != nil))
}

func deviceShortCopied(arg any) {
	d := arg.(*device)
	d.copyShort(d.req, d.env)
	d.span.End(d.now())
	d.rk.w.freeEnvelope(d.env)
	d.next()
}

// copyShort leaves a short message's payload in a contiguous receive,
// folded if the receive folds, and completes it.
func (d *device) copyShort(req *Request, env *envelope) {
	if req.fold.mine != nil {
		dst, mine := req.folded(0, env.bytes)
		d.fold(req.fold, req.dt, dst, mine, env.payload)
	} else {
		copy(req.buf, env.payload)
	}
	d.finishShort(req, env)
}

// capacity returns the receive capacity in bytes and checks truncation.
func (d *device) capacity(req *Request, incoming int64) {
	cap := req.dt.Size() * int64(req.count)
	if incoming > cap {
		panic(fmt.Sprintf("mpi: rank %d: message of %d bytes truncates receive of %d (src %d tag %d)",
			d.rk.id, incoming, cap, req.src, req.tag))
	}
}

// checkSignature verifies MPI's type-matching rule: the send and receive
// type signatures must agree, with pure-byte signatures acting as
// wildcards (envelope sig 0).
func (d *device) checkSignature(req *Request, env *envelope) {
	if env.sig == 0 {
		return
	}
	sig, byteOnly := req.dt.Signature()
	if byteOnly || sig == env.sig {
		return
	}
	panic(fmt.Sprintf("mpi: rank %d: type signature mismatch receiving from %d tag %d (%s does not match the send type)",
		d.rk.id, env.src, env.tag, req.dt))
}

// acceptShort checks and counts a matched short message, finishShort
// completes the receive once the inline payload is in the user buffer;
// between them the payload is copied (deliver) or unpacked (unpackShort).
func (d *device) acceptShort(req *Request, env *envelope) {
	d.capacity(req, env.bytes)
	d.stats.ShortRecvd++
	d.stats.BytesRecvd += env.bytes
}

func (d *device) finishShort(req *Request, env *envelope) {
	// Last read of the inline payload: return the pooled buffer.
	env.payloadBuf.Put()
	req.complete(env.src, env.tag, env.bytes)
}

// unpackShort scatters an inline payload into a non-contiguous receive.
func (d *device) unpackShort(p *sim.Proc, req *Request, env *envelope) {
	d.acceptShort(req, env)
	_, st := pack.GenericUnpack(req.buf, env.payload, req.dt, req.count, 0, env.bytes)
	d.rk.w.chargeBlocks(p, d.rk.node, st, false)
	d.finishShort(req, env)
	d.span.End(p.Now())
}

// deliverEager copies data out of the eager slot, or folds it in where it
// sits, and returns the credit.
func (d *device) deliverEager(p *sim.Proc, req *Request, env *envelope) {
	d.capacity(req, env.bytes)
	d.stats.EagerRecvd++
	d.stats.BytesRecvd += env.bytes
	mem := d.rk.ports[env.src].mem
	off := d.rk.w.eagerOff(env.slot)
	var err error
	switch {
	case req.fold.mine != nil:
		dst, mine := req.folded(0, env.bytes)
		err = d.foldView(p, mem, off, req.fold, req.dt, dst, mine)
	case req.dt.Contiguous():
		err = mem.Read(p, off, req.buf[:env.bytes])
	default:
		slot := mem.Bytes()[off : off+env.bytes]
		_, st := pack.GenericUnpack(req.buf, slot, req.dt, req.count, 0, env.bytes)
		d.rk.w.chargeBlocks(p, d.rk.node, st, false)
	}
	// The credit goes back whether or not the slot could be read: the
	// sender must not block on a slot this side has finished with.
	d.rk.w.ring(p, d.rk.id, env.src, envelope{
		kind: envEagerAck, src: d.rk.id, dst: env.src, slot: env.slot,
	}, false)
	if err != nil {
		d.failRecv(req, env, err)
	} else {
		req.complete(env.src, env.tag, env.bytes)
	}
}

// foldView leaves f's fold of mine and the partial of len(dst) bytes at off
// of mem in dst, elements of dt, read where it lies: two streams in and one
// out, billed on p as a read from a working set of three times its bytes
// (Fold). A failed read leaves dst as it was.
func (d *device) foldView(p *sim.Proc, mem smi.Mem, off int64, f reduceFold, dt *datatype.Type, dst, mine []byte) error {
	n := int64(len(dst))
	partial, err := mem.ReadView(p, off, n, 3*n)
	if err == nil {
		d.fold(f, dt, dst, mine, partial)
	}
	return err
}

// fold leaves f's fold of mine and partial in dst and counts the bytes.
func (d *device) fold(f reduceFold, dt *datatype.Type, dst, mine, partial []byte) {
	if f.mineLast {
		mine, partial = partial, mine
	}
	Fold(Op(f.op), dt, dst, mine, partial)
	d.stats.DrainCombined += int64(len(dst))
}

// failRecv completes a matched receive with the typed error of a failed
// drain of env: the port's segment was revoked under the receive.
func (d *device) failRecv(req *Request, env *envelope, err error) {
	d.rk.fl.Record(d.now(), flight.KPacketDrop, int64(env.kind), int64(env.src), flight.DropDrainFailed, 0)
	req.done.Complete(err)
}

// startRendezvous negotiates the transfer mode and grants the sender the
// rendezvous buffer.
func (d *device) startRendezvous(p *sim.Proc, req *Request, env *envelope) {
	d.capacity(req, env.bytes)
	d.stats.RdvRecvd++
	mode := rdvGeneric
	switch {
	case req.dt.Contiguous():
		// The sender may still be non-contiguous; it packs (directly, if
		// it can) and we receive a plain byte stream.
		mode = rdvContig
	case d.rk.w.protocol().UseFF && env.fingerprt == req.dt.Flat().Fingerprint() &&
		req.dt.Flat().Size > 0:
		mode = rdvFF
	}
	if env.bytes == 0 {
		// A zero-byte synchronous send: the CTS itself completes it.
		d.rk.w.ring(p, d.rk.id, env.src, envelope{
			kind: envRdvCTS, src: d.rk.id, dst: env.src,
			reqID: env.reqID, chunk: int(mode), reply: env.reply,
		}, false)
		req.complete(env.src, env.tag, 0)
		return
	}
	st := sim.TakeFree(&d.rk.w.rdvRecvFree)
	st.req, st.src, st.tag, st.bytes, st.mode = req, env.src, env.tag, env.bytes, mode
	if mode == rdvFF {
		st.cur.Init(req.dt, req.count)
	}
	if d.rdv == nil {
		d.rdv = make(map[int64]*rdvRecv)
	}
	d.rdv[env.reqID] = st
	d.rk.fl.Record(p.Now(), flight.KRdvCTS, int64(env.src), env.reqID, int64(mode), 0)
	d.rk.w.ring(p, d.rk.id, env.src, envelope{
		kind: envRdvCTS, src: d.rk.id, dst: env.src,
		reqID: env.reqID, chunk: int(mode), reply: env.reply,
	}, false)
}

func leafCopies(f *datatype.Flat) int64 {
	var n int64
	for i := range f.Leaves {
		n += f.Leaves[i].Copies()
	}
	if n == 0 {
		return 1
	}
	return n
}

// handleRdvData takes one announced rendezvous chunk: drained into the
// user buffer, or parked (kept: the hold owns the envelope) while it would
// fold over bytes the rank's own send has yet to read.
func (d *device) handleRdvData(p *sim.Proc, env *envelope) (kept bool) {
	st, ok := d.rdv[env.reqID]
	if !ok || env.chunk < st.nextChunk {
		// A duplicated chunk announcement: either the transfer already
		// completed (request gone) or the chunk was already taken. Drop it
		// without a second ack — the sender counted the first one.
		d.stats.Duplicates++
		d.rk.fl.Record(p.Now(), flight.KPacketDrop, int64(env.kind), int64(env.src), flight.DropDuplicate, int64(env.chunk))
		return false
	}
	st.nextChunk++
	if h := d.rk.hold(); h.holds(st.req, env.chunk) {
		h.parked = append(h.parked, parkedMsg{st.req, env})
		return true
	}
	d.drainRdv(p, st, env)
	return false
}

// drainRdv drains chunk env of st into the user buffer on p and acks it.
func (d *device) drainRdv(p *sim.Proc, st *rdvRecv, env *envelope) {
	n := env.chunkLen
	csp := d.rk.w.cfg.Tracer.StartSpan(p.Now(), d.actor, "recv", "rdv-chunk")
	csp.SetBytes(n)
	if st.err == nil {
		if st.err = d.drainChunk(p, st, env); st.err != nil {
			d.failRecv(st.req, env, st.err)
		}
	}
	csp.End(p.Now())
	st.received += n
	d.stats.BytesRecvd += n
	d.rk.fl.Record(p.Now(), flight.KRdvChunk, int64(env.src), env.reqID, n, st.received)
	d.rk.w.ring(p, d.rk.id, env.src, envelope{
		kind: envRdvAck, src: d.rk.id, dst: env.src,
		reqID: env.reqID, chunk: env.chunk, reply: env.reply,
	}, false)
	if st.received >= st.bytes {
		delete(d.rdv, env.reqID)
		if st.err == nil {
			d.rk.fl.Record(p.Now(), flight.KRdvDone, int64(env.src), env.reqID, st.bytes, 0)
			st.req.complete(st.src, st.tag, st.bytes)
			*st = rdvRecv{} // a recycled record starts empty
			d.rk.w.rdvRecvFree = append(d.rk.w.rdvRecvFree, st)
		}
	}
}

// exchHold keeps the partner's partial of a folding exchange off the bytes
// the rank is sending until its send has read them. Both members send the
// same bytes in the same chunks — a short or eager message is one chunk —
// so the partner's chunk k covers the bytes of the rank's own chunk k and
// may fold once that chunk has left: copied out, or deposited (a retried
// deposit reads it again). Until then the device parks it instead of
// blocking on it, because it routes the acks the rank's send waits on; the
// send folds it right after its own chunk left (sendRead). DESIGN.md argues
// why this cannot deadlock.
type exchHold struct {
	buf    *byte       // the first byte the rank is sending; nil: no hold
	read   int         // chunks of it the send has read
	parked []parkedMsg // in chunk order; one per rendezvous slot half at most
}

// parkedMsg is a matched partial the hold keeps: a short or eager message,
// or a rendezvous chunk of req's transfer.
type parkedMsg struct {
	req *Request
	env *envelope
}

// holds reports whether chunk k of a partial received into req's buffer
// folds over bytes the rank's own send has yet to read.
func (h *exchHold) holds(req *Request, k int) bool {
	return h != nil && h.buf != nil && unsafe.SliceData(req.buf) == h.buf && k >= h.read
}

// sendRead tells the hold that the rank's send of buf has read its chunk k
// (0 for a short or eager message), and folds on p the partials that
// frees.
func (d *device) sendRead(p *sim.Proc, buf []byte, k int) {
	if h := d.rk.hold(); h != nil && h.buf != nil && h.buf == unsafe.SliceData(buf) {
		h.read = k + 1
		d.release(p)
	}
}

// release folds on p, in order, the parked partials the hold no longer
// holds: those the send has read past, or all of them once the hold is off
// (buf nil). A rendezvous chunk whose transfer was torn down meanwhile goes
// unread.
func (d *device) release(p *sim.Proc) {
	h := d.rk.hold()
	for len(h.parked) > 0 && (h.buf == nil || h.parked[0].env.chunk < h.read) {
		m := h.parked[0]
		h.parked = append(h.parked[:0], h.parked[1:]...)
		switch m.env.kind {
		case envShort:
			d.acceptShort(m.req, m.env)
			p.Sleep(d.shortCopyCost(m.req, m.env))
			d.copyShort(m.req, m.env)
		case envEager:
			d.deliverEager(p, m.req, m.env)
		default:
			if st, ok := d.rdv[m.env.reqID]; ok {
				d.drainRdv(p, st, m.env)
			}
		}
		d.rk.w.freeEnvelope(m.env)
	}
}

// drainChunk moves one announced chunk out of the rendezvous buffer into
// the user buffer with the transfer's data engine. A receive that carries a
// fold combines the chunk with its own bytes in the same pass instead.
func (d *device) drainChunk(p *sim.Proc, st *rdvRecv, env *envelope) error {
	tr := d.rk.w.cfg.Tracer
	mem := d.rk.ports[env.src].mem
	off := d.rk.w.rdvOff(env.chunk)
	skip := st.received
	n := env.chunkLen
	if f := st.req.fold; f.mine != nil {
		dst, mine := st.req.folded(skip, n)
		return d.foldView(p, mem, off, f, st.req.dt, dst, mine)
	}
	switch st.mode {
	case rdvContig:
		return mem.Read(p, off, st.req.buf[skip:skip+n])
	case rdvFF:
		usp := tr.StartSpan(p.Now(), d.actor, "pack", "ff_unpack")
		usp.SetBytes(n)
		slot := mem.Bytes()[off : off+n]
		// The cursor resumes at skip from the previous chunk; Seek is free
		// on the sequential continuation and only pays find_position if a
		// chunk was replayed.
		st.cur.SeekTo(skip)
		_, pst := st.cur.Unpack(st.req.buf, slot, n)
		d.rk.w.chargeBlocks(p, d.rk.node, pst, true)
		usp.End(p.Now())
	case rdvGeneric:
		// Baseline: copy the chunk out of the buffer, then unpack locally
		// (two passes over the data — figure 4, top).
		usp := tr.StartSpan(p.Now(), d.actor, "pack", "generic_unpack")
		usp.SetBytes(n)
		scratch := bufpool.Get(int(n))
		err := mem.Read(p, off, scratch.B)
		if err == nil {
			_, pst := pack.GenericUnpack(st.req.buf, scratch.B, st.req.dt, st.req.count, skip, n)
			d.rk.w.chargeBlocks(p, d.rk.node, pst, false)
		}
		scratch.Put()
		usp.End(p.Now())
		return err
	}
	return nil
}

// handleRdvCancel tears down an abandoned rendezvous: the sender gave up
// after a permanent deposit failure, so the transfer state is freed and
// the posted receive fails with a typed *CancelledError instead of waiting
// for the watchdog. Cancels for unknown requests (already completed, or a
// request packet that never arrived) are ignored.
func (d *device) handleRdvCancel(env *envelope) {
	st, ok := d.rdv[env.reqID]
	if !ok {
		d.rk.fl.Record(d.now(), flight.KPacketDrop, int64(env.kind), int64(env.src), flight.DropStray, env.reqID)
		return
	}
	delete(d.rdv, env.reqID)
	d.stats.RdvCancels++
	d.rk.fl.Record(d.now(), flight.KRdvCancel, int64(env.src), env.reqID, st.received, 0)
	if st.err == nil {
		st.req.done.Complete(&CancelledError{Sender: env.src, ReqID: env.reqID})
	}
}

// failFrom tears down this rank's in-flight receive-side state against a
// revoked peer: posted receives bound to the peer and rendezvous transfers
// it was feeding complete immediately with err instead of waiting for
// their watchdogs. Wildcard receives are left alone — another sender can
// still match them.
func (d *device) failFrom(src int, err error) {
	kept := d.posted[:0]
	var failed []*Request
	for _, req := range d.posted {
		if req.src == src {
			failed = append(failed, req)
			continue
		}
		kept = append(kept, req)
	}
	d.posted = kept
	for id, st := range d.rdv {
		if st.src == src {
			delete(d.rdv, id)
			d.stats.RdvCancels++
			failed = append(failed, st.req)
		}
	}
	for _, req := range failed {
		if !req.done.Done() {
			req.done.Complete(err)
		}
	}
}
