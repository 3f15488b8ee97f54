package mpi

import (
	"fmt"
	"time"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/obs/flight"
	"scimpich/internal/pack"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
	"scimpich/internal/smi"
)

// genericTraversalPenalty is the extra software cost the recursive generic
// packing engine pays per contiguous block (repeated tree descent), which
// direct_pack_ff replaces with plain array/stack operations.
func genericTraversalPenalty(blocks int64) time.Duration {
	return time.Duration(blocks) * 160 * time.Nanosecond
}

// Send transmits count instances of dt from buf to rank dst with the given
// tag, blocking (in virtual time) until the user buffer is reusable. A
// crashed peer node yields sci.ErrConnectionLost, an expired rendezvous
// watchdog (ProtocolConfig.RendezvousTimeout) a *fault.Error of kind
// Timeout, persistent injected transfer errors their fault kind and a dst
// outside the communicator or a buffer that cannot hold count elements an
// *ArgumentError. Transient faults are retried with exponential backoff
// first (sendRetryMax attempts from sendBackoff).
func (c *Comm) Send(buf []byte, count int, dt *datatype.Type, dst, tag int) error {
	if err := CheckBuffer("Send", "send buffer", buf, count, dt); err != nil {
		return err
	}
	return c.send(buf, count, dt, dst, tag, c.ctx)
}

// sendSig returns the envelope signature of a datatype (0 for the
// pure-byte wildcard).
func sendSig(dt *datatype.Type) uint64 {
	sig, byteOnly := dt.Signature()
	if byteOnly {
		return 0
	}
	return sig
}

func (c *Comm) send(buf []byte, count int, dt *datatype.Type, dst, tag, ctx int) error {
	p := c.p
	w := c.rk.w
	p.Sleep(callOverhead)
	if err := c.checkRank("Send", "destination", dst); err != nil {
		return err
	}
	dst = c.worldRank(dst) // all plumbing below uses world ranks
	bytes := dt.Size() * int64(count)
	tr := w.cfg.Tracer
	var protoCode int64 // matches the KSendPost payload table
	switch {
	case dst == c.rk.id:
		protoCode = 0
	case bytes <= shortMax:
		protoCode = 1
	case bytes <= eagerMax:
		protoCode = 2
	default:
		protoCode = 3
	}
	c.rk.fl.Record(p.Now(), flight.KSendPost, int64(dst), int64(tag), bytes, protoCode)

	if dst == c.rk.id {
		// Self send: buffered through an inline payload.
		sp := tr.StartSpan(p.Now(), c.rk.actor, "send", "self")
		sp.SetBytes(bytes)
		payload := c.packCanonical(buf, count, dt, bytes)
		w.ring(p, c.rk.id, dst, envelope{
			kind: envShort, src: c.rk.id, dst: dst, tag: tag, ctx: ctx,
			bytes: bytes, payload: payload.B, payloadBuf: payload, sig: sendSig(dt),
		}, false)
		sp.End(p.Now())
		return nil
	}

	start := p.Now()
	path := protoCode - 1 // the index of the protocol in sendPaths
	sp := tr.StartSpan(start, c.rk.actor, "send", sendPaths[path])
	sp.SetBytes(bytes)
	if sp != nil {
		sp.SetDetail("-> %d tag %d", dst, tag)
	}
	var err error
	switch protoCode {
	case 1:
		err = c.sendShort(buf, count, dt, dst, tag, ctx, bytes)
	case 2:
		err = c.sendEager(buf, count, dt, dst, tag, ctx, bytes)
	default:
		err = c.sendRendezvous(buf, count, dt, dst, tag, ctx, bytes)
	}
	sp.End(p.Now())
	w.stats.Sends[path]++
	w.stats.SendBytes[path] += bytes
	w.met.sendNS[path].ObserveDuration(p.Now() - start)
	return c.fail(flight.OpSend, dst, err)
}

// fail passes the result of an operation against world rank peer through,
// recording a flight KError event (and triggering the recorder's
// dump-on-failure) when the protocol surfaced a typed error.
func (c *Comm) fail(op flight.Op, peer int, err error) error {
	if err != nil {
		c.rk.fl.Fail(c.p.Now(), op, peer, err)
	}
	return err
}

// peerLost reports whether the destination rank is unreachable: a revoked
// endpoint (either side) fails permanently as *RevokedRankError, a dead
// node as the typed connection error; nil otherwise. Observing a dead node
// also feeds the failure detector (World.Suspect), so a later shrink
// agreement starts from what the protocols already saw.
func (c *Comm) peerLost(dst int) error {
	w := c.rk.w
	if w.revoked[c.rk.id] {
		return &RevokedRankError{Rank: c.rk.id}
	}
	if w.revoked[dst] {
		return &RevokedRankError{Rank: dst}
	}
	if w.ic == nil {
		return nil
	}
	node := w.ranks[dst].node
	if node == c.rk.node || w.ic.Alive(node) {
		return nil
	}
	w.Suspect(dst)
	return sci.ErrConnectionLost{From: c.rk.node, To: node}
}

// watchdogExpired is the one epilogue of every bounded wait that ran out
// (receive, collective, rendezvous control, one-sided handler call): it
// counts the expiry and lets the liveness of the awaited world rank decide
// the error — a revoked endpoint or a dead node as peerLost reports them, a
// *fault.Error of kind Timeout against a peer that is alive but silent, or
// against AnySource. The operation the wait belongs to records the error
// as its flight KError.
func (c *Comm) watchdogExpired(peer int) error {
	c.rk.dev.stats.SendTimeouts++
	if peer != AnySource {
		if err := c.peerLost(peer); err != nil {
			return err
		}
	}
	return &fault.Error{Kind: fault.Timeout, From: c.rk.id, To: peer, At: c.p.Now()}
}

// retryTransfer runs a fallible data deposit, retrying retryable injected
// faults with exponential backoff (sendRetryMax attempts, sendBackoff
// initial delay) before surfacing the error.
func (c *Comm) retryTransfer(dst int, op func() error) error {
	backoff := sendBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		fe, ok := err.(*fault.Error)
		if !ok || !fe.Retryable() || attempt >= sendRetryMax {
			return err
		}
		c.rk.dev.stats.SendRetries++
		c.rk.fl.Record(c.p.Now(), flight.KFault, int64(fe.Kind), int64(c.rk.id), int64(dst), int64(attempt+1))
		c.p.Sleep(backoff)
		backoff *= 2
	}
}

// packCanonical produces the canonical (definition-order) linearization of
// the message into a pooled payload buffer, charging local copy costs. The
// caller owns the returned buffer: scratch uses Put it when done, envelope
// payloads hand ownership to the receiving device (via envelope.payloadBuf).
func (c *Comm) packCanonical(buf []byte, count int, dt *datatype.Type, bytes int64) *bufpool.Buf {
	payload := bufpool.Get(int(bytes))
	if dt.Contiguous() {
		c.p.Sleep(c.mem().CopyCost(bytes, bytes, bytes))
		copy(payload.B, buf[:bytes])
		return payload
	}
	_, st := pack.GenericPack(payload.B, buf, dt, count, 0, -1)
	c.rk.w.chargeBlocks(c.p, c.rk.node, st, false)
	return payload
}

// chargeBlocks bills the local block-copy work of a pack or unpack on p, a
// process of the given node. ff selects the direct_pack_ff cost model (cheap
// stack iteration, possible cache bonus); the generic engine pays the
// recursive tree walk per block on top of the copy.
func (w *World) chargeBlocks(p *sim.Proc, node int, st pack.Stats, ff bool) {
	if st.Bytes == 0 {
		return
	}
	w.countPack(st, ff)
	m := w.cfg.Shm.Mem
	ws := st.Bytes * 2 // source chunk + scattered destination
	var cost time.Duration
	if ff {
		cost = m.BlockCopyCostFF(st.Bytes, st.AvgBlock(), ws)
	} else {
		cost = m.CopyCost(st.Bytes, st.AvgBlock(), ws) + genericTraversalPenalty(st.Blocks)
	}
	w.buses[node].Charge(p, st.Bytes, cost)
}

// sendShort carries the payload inline in the control packet.
func (c *Comm) sendShort(buf []byte, count int, dt *datatype.Type, dst, tag, ctx int, bytes int64) error {
	if err := c.peerLost(dst); err != nil {
		return err
	}
	payload := c.packCanonical(buf, count, dt, bytes)
	w := c.rk.w
	// Charge the wire cost of the payload riding along the control packet.
	if c.remote(dst) && bytes > 0 {
		c.p.Sleep(sim.RateDuration(bytes, sci.PIOWritePeakBW))
	}
	w.ring(c.p, c.rk.id, dst, envelope{
		kind: envShort, src: c.rk.id, dst: dst, tag: tag, ctx: ctx,
		bytes: bytes, payload: payload.B, payloadBuf: payload, sig: sendSig(dt),
	}, false)
	return nil
}

// sendEager deposits the message in a preallocated eager slot at the
// receiver and announces it. Failed deposits are retried with backoff; a
// persistent failure returns the eager credit and surfaces the error.
func (c *Comm) sendEager(buf []byte, count int, dt *datatype.Type, dst, tag, ctx int, bytes int64) error {
	w := c.rk.w
	out := &c.rk.out[dst]
	slot := c.p.Acquire(&out.credits) // eager flow control
	off := w.eagerOff(slot)
	var payload *bufpool.Buf
	if !dt.Contiguous() {
		// Canonical pack into a pooled scratch buffer, then one streamed
		// write (eager messages cannot negotiate ff: the receive type is
		// not known yet).
		payload = c.packCanonical(buf, count, dt, bytes)
	}
	err := c.retryTransfer(dst, func() error {
		if err := c.peerLost(dst); err != nil {
			return err
		}
		src := buf[:bytes]
		if payload != nil {
			src = payload.B
		}
		if err := out.mem.WriteStream(c.p, off, src, bytes); err != nil {
			return err
		}
		return out.mem.Sync(c.p)
	})
	// WriteStream captures the bytes synchronously, so the scratch can go
	// back to the pool before the announcement.
	payload.Put()
	if err != nil {
		out.credits.Release(slot) // the slot was never announced
		return err
	}
	w.ring(c.p, c.rk.id, dst, envelope{
		kind: envEager, src: c.rk.id, dst: dst, tag: tag, ctx: ctx,
		bytes: bytes, slot: slot, sig: sendSig(dt),
	}, false)
	return nil
}

// recvCtl waits for the next rendezvous control packet from dst, bounded by
// the rendezvous watchdog (ProtocolConfig.RendezvousTimeout; AutoTimeout
// scales with the world, 0 waits forever). On expiry the peer's liveness
// decides the error: a dead node yields sci.ErrConnectionLost, otherwise a
// *fault.Error of kind Timeout.
func (c *Comm) recvCtl(reply *sim.Chan, dst int) (*envelope, error) {
	to := c.rk.w.rendezvousTimeoutEff()
	if to <= 0 {
		return c.ctlEnvelope(c.p.Recv(reply)), nil
	}
	v, ok := c.p.RecvTimeout(reply, to)
	if !ok {
		return nil, c.watchdogExpired(dst)
	}
	return c.ctlEnvelope(v), nil
}

// ctlEnvelope is a control reply taken off a reply channel: the device
// forwarded it, so the calling process is its last reader and must free it.
func (c *Comm) ctlEnvelope(v any) *envelope {
	env := v.(*envelope)
	env.live()
	return env
}

// expectCtl waits for a rendezvous control packet of the given kind from
// dst and returns its chunk field (the transfer mode of a CTS, the chunk
// index of an ack); the packet ends here and is freed. A stray CTS while an
// ack is due (an injected retransmission racing the data chunks) is counted
// and dropped; any other unexpected kind surfaces as a *ProtocolError so
// the operation degrades instead of crashing the rank.
func (c *Comm) expectCtl(reply *sim.Chan, dst int, want envKind) (int, error) {
	for {
		env, err := c.recvCtl(reply, dst)
		if err != nil {
			return 0, err
		}
		got, chunk := env.kind, env.chunk
		c.rk.w.freeEnvelope(env)
		if got == want {
			return chunk, nil
		}
		if want == envRdvAck && got == envRdvCTS {
			c.rk.dev.stats.Duplicates++
			c.rk.fl.Record(c.p.Now(), flight.KPacketDrop, int64(got), int64(dst), flight.DropStray, 0)
			continue
		}
		return 0, &ProtocolError{Want: want.String(), Got: got.String(), From: c.rk.id, To: dst}
	}
}

// cancelRendezvous tells the receiver (best-effort) that the sender has
// abandoned an in-flight rendezvous, so it frees its transfer state and
// fails the posted receive instead of waiting for the watchdog. Delivered
// with an interrupt: a rank stuck in the broken transfer is not polling.
func (c *Comm) cancelRendezvous(dst int, reqID int64) {
	c.rk.fl.Record(c.p.Now(), flight.KRdvCancel, int64(dst), reqID, 0, 0)
	c.rk.w.ring(c.p, c.rk.id, dst, envelope{
		kind: envRdvCancel, src: c.rk.id, dst: dst, reqID: reqID,
	}, true)
}

// sendRendezvous performs the handshaked large-message transfer, packing
// each chunk directly into the receiver's rendezvous buffer (direct_pack_ff
// when both sides agree) or through the generic pipeline. Chunk deposits
// retry transient injected faults with backoff; control-packet waits are
// bounded by the rendezvous watchdog. Once the request has been announced,
// every error return also cancels the receiver's transfer state.
func (c *Comm) sendRendezvous(buf []byte, count int, dt *datatype.Type, dst, tag, ctx int, bytes int64) error {
	w := c.rk.w
	proto := w.protocol()
	out := &c.rk.out[dst]
	p := c.p

	p.Lock(&out.rdvLock)
	defer p.Unlock(&out.rdvLock)

	if err := c.peerLost(dst); err != nil {
		return err
	}
	sc := sim.TakeFree(&w.rdvSendFree)
	reply := &sc.reply
	reqID := c.rk.nextReqID()
	contig := dt.Contiguous() // asked once per message, not per chunk
	var fp uint64
	if !contig {
		fp = dt.Flat().Fingerprint()
	}
	w.ring(p, c.rk.id, dst, envelope{
		kind: envRdvReq, src: c.rk.id, dst: dst, tag: tag, ctx: ctx,
		bytes: bytes, reqID: reqID, fingerprt: fp, reply: reply, sig: sendSig(dt),
	}, false)
	c.rk.fl.Record(p.Now(), flight.KRdvStart, int64(dst), reqID, bytes, 0)
	cts, err := c.expectCtl(reply, dst, envRdvCTS)
	if err != nil {
		c.cancelRendezvous(dst, reqID)
		return err
	}
	mode := rdvMode(cts)

	// A resumable cursor carries find_position state across chunks: the
	// sequential continuation at each chunk boundary is O(1), and a retried
	// deposit rewinds with one Seek instead of a per-chunk restart. It lives
	// in the scratch record, as does the descriptor slice of the DMA-SG path.
	if mode == rdvFF && !contig {
		sc.cur.Init(dt, count)
	}

	chunkSize := proto.RendezvousChunk
	nChunks := int((bytes + chunkSize - 1) / chunkSize)
	acked := 0
	for chunk := 0; chunk < nChunks; chunk++ {
		// Double-buffered slots: wait for the ack freeing slot chunk-2.
		for chunk-acked >= 2 {
			if _, err := c.expectCtl(reply, dst, envRdvAck); err != nil {
				c.cancelRendezvous(dst, reqID)
				return err
			}
			acked++
		}
		skip := int64(chunk) * chunkSize
		n := chunkSize
		if skip+n > bytes {
			n = bytes - skip
		}
		off := w.rdvOff(chunk)
		err := c.retryTransfer(dst, func() error {
			if err := c.peerLost(dst); err != nil {
				return err
			}
			if err := c.packChunkInto(out, sc, off, buf, count, dt, contig, skip, n, mode); err != nil {
				return err
			}
			return out.mem.Sync(p) // store barrier: data complete before the flag
		})
		if err != nil {
			c.cancelRendezvous(dst, reqID)
			return err
		}
		w.ring(p, c.rk.id, dst, envelope{
			kind: envRdvData, src: c.rk.id, dst: dst,
			reqID: reqID, chunk: chunk, chunkLen: n, reply: reply,
		}, false)
	}
	for acked < nChunks {
		if _, err := c.expectCtl(reply, dst, envRdvAck); err != nil {
			c.cancelRendezvous(dst, reqID)
			return err
		}
		acked++
	}
	c.rk.fl.Record(p.Now(), flight.KRdvDone, int64(dst), reqID, bytes, 0)
	w.freeRdvSend(sc) // every error return above leaves the record to the GC
	return nil
}

// rdvSend is the sender's scratch of one rendezvous transfer: the channel
// its CTS and acks arrive on (envelope.reply points at it), the resumable
// pack cursor of the ff mode, and the descriptor slice of the DMA-SG path.
//
// Scratch records are recycled through per-world free lists like envelopes,
// but under a stricter rule, because control packets name the record for as
// long as they are in flight: the last reader returns a record only when
// its transfer ended cleanly — then every CTS and ack it was sent has been
// consumed — and an errored or cancelled transfer leaves its record to the
// GC. A stale CTS or ack therefore lands in a record no later transfer
// will see, and records need neither a generation stamp nor a request-id
// filter. The receiver's rdvRecv follows the same rule.
type rdvSend struct {
	reply sim.Chan
	cur   pack.Cursor
	sink  offsetSink
	descs []pack.Descriptor
}

// freeRdvSend takes sc back after a transfer that ended cleanly. A reply
// still queued (nothing sends one, but a recycled record must start empty)
// leaves it to the GC instead.
func (w *World) freeRdvSend(sc *rdvSend) {
	if sc.reply.Len() == 0 {
		w.rdvSendFree = append(w.rdvSendFree, sc)
	}
}

// packChunkInto moves one rendezvous chunk into the receiver's buffer,
// surfacing injected transfer faults for the caller to retry. contig is
// dt.Contiguous(). sc is the transfer's scratch: its resumable pack cursor
// (initialised in the ff mode only) rewinds a retried chunk to its start
// with one Seek.
func (c *Comm) packChunkInto(out *sendPort, sc *rdvSend, off int64, buf []byte, count int, dt *datatype.Type, contig bool, skip, n int64, mode rdvMode) error {
	w := c.rk.w
	mem := out.mem
	proto := w.protocol()
	switch {
	case contig:
		// A contiguous chunk takes the DMA engine only under PathDMA; every
		// other policy streams it by PIO.
		if proto.Path == PathDMA {
			if req, ok := mem.DMAWrite(c.p, off, buf[skip:skip+n]); ok {
				// The CPU is free during the transfer; the protocol simply
				// waits for the engine before signalling the chunk.
				start := c.p.Now()
				sp := w.cfg.Tracer.StartSpan(start, c.rk.actor, "transfer", "dma")
				sp.SetBytes(n)
				err := req.Wait(c.p)
				sp.End(c.p.Now())
				w.stats.DMABytes += n
				w.met.transferDMANS.ObserveDuration(c.p.Now() - start)
				c.choosePath(flight.PathDMACont, n)
				return err
			}
		}
		c.choosePath(flight.PathPIOCont, n)
		return mem.WriteStream(c.p, off, buf[skip:skip+n], dt.Size()*int64(count))
	case mode == rdvFF && proto.UseFF:
		// The receiver ff-unpacks, so every candidate engine must deposit
		// the cursor's leaf-major linearization: direct_pack_ff, a staged
		// cursor pack + stream, or descriptor-list DMA.
		f := dt.Flat()
		avgBlock := f.Size / leafCopies(f)
		if avgBlock <= 0 {
			avgBlock = 1
		}
		blocks := (n + avgBlock - 1) / avgBlock
		path := depositFF
		if proto.Path != PathAdaptive || (w.ic != nil && mem.Remote()) {
			// Adaptive ranking only where the SCI cost models apply; forced
			// policies always take effect (SG falls back below if the
			// transport has no descriptor engine).
			path = c.chooseDeposit(n, avgBlock, blocks)
		}
		var err error
		switch path {
		case depositStaged:
			err = c.depositStaged(mem, off, buf, &sc.cur, skip, n)
		case depositSG:
			var ok bool
			ok, err = c.depositSG(out, sc, off, buf, skip, n)
			if !ok {
				path = depositFF
				err = c.depositFF(mem, sc, off, buf, skip, n)
			}
		default:
			err = c.depositFF(mem, sc, off, buf, skip, n)
		}
		c.choosePath(int(path), n)
		return err
	default:
		// Generic baseline: local pack, then one streamed copy.
		start := c.p.Now()
		sp := w.cfg.Tracer.StartSpan(start, c.rk.actor, "pack", "generic")
		sp.SetBytes(n)
		scratch := bufpool.Get(int(n))
		_, st := pack.GenericPack(scratch.B, buf, dt, count, skip, n)
		c.rk.w.chargeBlocks(c.p, c.rk.node, st, false)
		err := mem.WriteStream(c.p, off, scratch.B, n)
		scratch.Put()
		sp.End(c.p.Now())
		w.stats.PackGenericBytes += n
		w.met.packGenericNS.ObserveDuration(c.p.Now() - start)
		c.choosePath(flight.PathGeneric, n)
		return err
	}
}

// choosePath counts an n-byte rendezvous chunk under the path that deposited
// it, a flight.Path* code, and records the choice.
func (c *Comm) choosePath(path int, n int64) {
	c.rk.w.stats.PathChosen[path]++
	c.rk.fl.Record(c.p.Now(), flight.KPathChosen, int64(path), n, 0, 0)
}

// depositFF packs one chunk straight into the (possibly remote) buffer
// with direct_pack_ff. The working set per handshake cycle is the chunk
// plus its gaps (the reason the chunk must stay below the L2 size).
func (c *Comm) depositFF(mem smi.Mem, sc *rdvSend, off int64, buf []byte, skip, n int64) error {
	w := c.rk.w
	start := c.p.Now()
	sp := w.cfg.Tracer.StartSpan(start, c.rk.actor, "pack", "direct_pack_ff")
	sp.SetBytes(n)
	bw := mem.BlockWriter(c.p, 2*n)
	sc.sink = offsetSink{w: bw, base: off}
	sc.cur.SeekTo(skip) // free on sequential continuation, O(leaves) on retry
	sc.cur.Pack(&sc.sink, buf, n)
	err := bw.Flush()
	sp.End(c.p.Now())
	w.stats.PackFFBytes += n
	w.met.packFFNS.ObserveDuration(c.p.Now() - start)
	return err
}

// depositStaged cursor-packs one chunk into local scratch, then issues a
// single contiguous stream write. For tiny blocks this beats the per-block
// PIO issue cost of depositFF: the extra local copy runs at cache speed
// while the wire sees one full-size stream.
func (c *Comm) depositStaged(mem smi.Mem, off int64, buf []byte, cur *pack.Cursor, skip, n int64) error {
	w := c.rk.w
	start := c.p.Now()
	sp := w.cfg.Tracer.StartSpan(start, c.rk.actor, "pack", "staged_ff")
	sp.SetBytes(n)
	scratch := bufpool.Get(int(n))
	cur.SeekTo(skip)
	_, st := cur.Pack(scratch, buf, n)
	c.rk.w.chargeBlocks(c.p, c.rk.node, st, true)
	err := mem.WriteStream(c.p, off, scratch.B, n)
	scratch.Put()
	sp.End(c.p.Now())
	w.stats.PackFFBytes += n
	w.met.packFFNS.ObserveDuration(c.p.Now() - start)
	return err
}

// depositSG builds the chunk's scatter-gather descriptor list and offloads
// the deposit to the DMA engine — no local pack pass at all. ok=false
// means the transport has no descriptor engine and nothing was deposited
// (the cursor is rewound); the caller falls back to depositFF.
func (c *Comm) depositSG(out *sendPort, sc *rdvSend, off int64, buf []byte, skip, n int64) (ok bool, err error) {
	w := c.rk.w
	start := c.p.Now()
	sc.cur.SeekTo(skip)
	var st pack.Stats
	sc.descs, st = sc.cur.Descriptors(sc.descs[:0], n)
	req, ok := out.mem.DMAWriteSG(c.p, off, buf, sc.descs)
	if !ok {
		sc.cur.SeekTo(skip)
		return false, nil
	}
	sp := w.cfg.Tracer.StartSpan(start, c.rk.actor, "pack", "dma_sg")
	sp.SetBytes(n)
	// The descriptor build is the ff traversal; it counts as ff pack work
	// even though no bytes move through the CPU.
	w.countPack(st, true)
	err = req.Wait(c.p)
	sp.End(c.p.Now())
	w.stats.PackSGBytes += n
	w.met.packSGNS.ObserveDuration(c.p.Now() - start)
	return true, err
}

// offsetSink adapts an smi.BlockWriter to a pack.Sink with a base offset. It
// is used through a pointer into the transfer's scratch record, which an
// interface holds without boxing.
type offsetSink struct {
	w    smi.BlockWriter
	base int64
}

func (o *offsetSink) Write(off int64, src []byte) { o.w.Write(o.base+off, src) }

// remote reports whether the world rank dst lives on a different node.
func (c *Comm) remote(dst int) bool { return c.rk.w.ranks[dst].node != c.rk.node }

// Recv blocks until a matching message has been received into buf.
// src may be AnySource and tag may be AnyTag. It waits without a bound
// (RecvTimeout has one) and returns the typed errors RecvTimeout does.
func (c *Comm) Recv(buf []byte, count int, dt *datatype.Type, src, tag int) (Status, error) {
	return c.RecvTimeout(buf, count, dt, src, tag, 0)
}

// RecvTimeout is Recv with a watchdog: if no matching message arrives
// within timeout (virtual time) it returns a *fault.Error of kind Timeout —
// or sci.ErrConnectionLost when a specific source rank's node is down —
// instead of blocking forever. A timeout of 0 waits indefinitely;
// AutoTimeout selects the world-scaled rendezvous bound. A source outside
// the communicator, a buffer that cannot hold count elements, or a
// negative timeout other than AutoTimeout is an *ArgumentError whose Call
// is "Recv", the operation both calls make.
//
// The Status comes back by value: the receive's Request is the call's own,
// taken from the world's free list and returned to it by finishRecv, so a
// blocking receive allocates nothing.
func (c *Comm) RecvTimeout(buf []byte, count int, dt *datatype.Type, src, tag int, timeout time.Duration) (Status, error) {
	peer, err := c.recvPeer("Recv", src)
	if err == nil {
		err = CheckBuffer("Recv", "receive buffer", buf, count, dt)
	}
	if err == nil && timeout < 0 && timeout != AutoTimeout {
		err = argErrf("Recv", "timeout %v is negative and not AutoTimeout", timeout)
	}
	if err != nil {
		return Status{}, err
	}
	r := c.postRecv(sim.TakeFree(&c.rk.w.reqFree), buf, count, dt, src, tag)
	if timeout == AutoTimeout {
		timeout = c.rk.w.ScaledRendezvousTimeout()
	}
	st, err := c.finishRecv(r, timeout)
	return st, c.fail(flight.OpRecv, peer, err)
}

// recvPeer resolves the source of a blocking receive to the world rank its
// failures are reported against (AnySource stays). It refuses a source
// outside the communicator with an *ArgumentError naming call, and a
// revoked one, which no message can come from any more.
func (c *Comm) recvPeer(call string, src int) (int, error) {
	if src == AnySource {
		return src, nil
	}
	if err := c.checkRank(call, "source", src); err != nil {
		return src, err
	}
	peer := c.worldRank(src)
	if c.rk.w.revoked[peer] {
		return peer, &RevokedRankError{Rank: peer}
	}
	return peer, nil
}

// finishRecv awaits r — a receive posted on a Request from the world's free
// list, which never reaches the caller — for at most to (0: forever) and
// returns its status. An expired wait surfaces as watchdogExpired decides
// from the liveness of the awaited rank.
func (c *Comm) finishRecv(r *Request, to time.Duration) (Status, error) {
	if to > 0 {
		if _, ok := c.p.AwaitTimeout(&r.done, to); !ok {
			return Status{}, c.watchdogExpired(r.src)
		}
	}
	if _, err := r.Wait(); err != nil {
		return Status{}, err
	}
	// Matched, delivered and read: nothing names the request any more. One
	// that failed or timed out may still be posted at the device or held by
	// a rendezvous in progress, and is left to the GC.
	st := r.status
	*r = Request{}
	c.rk.w.reqFree = append(c.rk.w.reqFree, r)
	return st, nil
}

// Request is a handle on an outstanding nonblocking operation. A receive is
// one object for its whole life: the matching key the device queues, the
// future the caller waits on and the status it gets back are all embedded.
type Request struct {
	c *Comm // its process c.p waits on it; its context is the match's
	recvReq
	done   sim.Future // completes with &status, an error, or nil (sends)
	status Status
	// fold is the combine a collective receive carries (irecvFold), zero
	// for every other receive and for sends.
	fold reduceFold
}

// complete finishes a receive matched to a message of bytes from world rank
// src; the status Source is communicator-local.
func (r *Request) complete(src, tag int, bytes int64) {
	r.status = Status{Source: r.c.localRank(src), Tag: tag, Bytes: bytes}
	r.done.Complete(&r.status)
}

// Wait blocks until the operation completes, returning the receive status
// (nil for sends). The status Source is communicator-local. A receive whose
// rendezvous the sender abandoned fails with a *CancelledError, a
// nonblocking send with the error Send would have returned.
func (r *Request) Wait() (*Status, error) {
	switch v := r.c.p.Await(&r.done).(type) {
	case error:
		return nil, v
	case *Status:
		return v, nil
	}
	return nil, nil
}

// Irecv posts a nonblocking receive. A source outside the communicator, a
// revoked one, or a buffer that cannot hold count elements posts nothing:
// the request completes with the *ArgumentError or *RevokedRankError.
func (c *Comm) Irecv(buf []byte, count int, dt *datatype.Type, src, tag int) *Request {
	_, err := c.recvPeer("Irecv", src)
	if err == nil {
		err = CheckBuffer("Irecv", "receive buffer", buf, count, dt)
	}
	if err != nil {
		req := &Request{c: c}
		req.done.Complete(err)
		return req
	}
	return c.postRecv(new(Request), buf, count, dt, src, tag)
}

// postRecv posts the receive on req, a zero Request but for its fold.
func (c *Comm) postRecv(req *Request, buf []byte, count int, dt *datatype.Type, src, tag int) *Request {
	c.p.Sleep(callOverhead)
	if !dt.Committed() {
		panic(fmt.Sprintf("mpi: receive with uncommitted datatype %s", dt))
	}
	if src != AnySource {
		src = c.worldRank(src)
	}
	*req = Request{c: c, fold: req.fold, recvReq: recvReq{
		src: src, tag: tag,
		buf: buf, count: count, dt: dt,
	}}
	c.rk.fl.Record(c.p.Now(), flight.KRecvPost, int64(src), int64(tag), dt.Size()*int64(count), 0)
	c.rk.dev.post(req)
	return req
}

// Isend starts a nonblocking send. The transfer work runs on a transient
// helper process; Wait returns once the user buffer is reusable. A transfer
// failure completes the request with the typed error, so it reaches the
// caller of Wait instead of ending the run from inside the helper.
func (c *Comm) Isend(buf []byte, count int, dt *datatype.Type, dst, tag int) *Request {
	req := &Request{c: c}
	if err := CheckBuffer("Isend", "send buffer", buf, count, dt); err != nil {
		req.done.Complete(err)
		return req
	}
	c.rk.w.host.Go(fmt.Sprintf("isend%d->%d", c.rk.id, dst), func(p *sim.Proc) {
		h := c.derive()
		h.p = p
		if err := h.send(buf, count, dt, dst, tag, c.ctx); err != nil {
			req.done.Complete(err)
			return
		}
		req.done.Complete(nil)
	})
	return req
}

// Sendrecv performs a simultaneous send and receive (deadlock-free). It
// returns the failures of Send for the send half and those of Recv for
// the receive half.
func (c *Comm) Sendrecv(sendBuf []byte, sendCount int, sendType *datatype.Type, dst, sendTag int,
	recvBuf []byte, recvCount int, recvType *datatype.Type, src, recvTag int) (Status, error) {
	peer, err := c.recvPeer("Sendrecv", src)
	if err == nil {
		err = CheckBuffer("Sendrecv", "send buffer", sendBuf, sendCount, sendType)
	}
	if err == nil {
		err = CheckBuffer("Sendrecv", "receive buffer", recvBuf, recvCount, recvType)
	}
	if err != nil {
		return Status{}, err
	}
	r := c.postRecv(sim.TakeFree(&c.rk.w.reqFree), recvBuf, recvCount, recvType, src, recvTag)
	if err := c.send(sendBuf, sendCount, sendType, dst, sendTag, c.ctx); err != nil {
		return Status{}, err
	}
	st, err := c.finishRecv(r, 0)
	return st, c.fail(flight.OpRecv, peer, err)
}

// nextReqID returns a cluster-unique rendezvous id.
func (rk *rank) nextReqID() int64 {
	rk.reqCounter++
	return int64(rk.id)<<32 | rk.reqCounter
}
