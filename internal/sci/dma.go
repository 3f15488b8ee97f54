package sci

import (
	"time"

	"scimpich/internal/bufpool"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// dmaEngine serializes DMA transfers on one adapter. Submissions are cheap
// for the CPU; the engine itself moves the data through the flow network.
// Plain requests stage a contiguous buffer; scatter-gather requests carry a
// descriptor list and gather straight from the submitter's source buffer,
// which therefore must stay valid and unmodified until Wait returns (the
// protocol layers above wait before reusing anything).
//
// A node's engine is made by its first transfer, and its daemon p starts at
// the first submission, which wakes it; a node that never uses DMA has
// neither.
type dmaEngine struct {
	node  *Node
	p     *sim.Proc
	queue sim.FIFO[*DMARequest] // submitted, not yet taken up by p
	idle  bool                  // p is parked waiting for a submission
	free  []*DMARequest         // requests whose submitter has waited (see Wait)
}

// DMARequest is one submitted DMA transfer. Its submitter calls Wait, once,
// for the outcome. Requests are recycled through their engine's free list by
// that last reader, so a transfer in steady state allocates nothing.
type DMARequest struct {
	eng  *dmaEngine // nil for a request that failed at submission
	m    *Mapping
	off  int64
	data *bufpool.Buf // staged source bytes; recycled when the engine is done

	// Scatter-gather requests (descs != nil): src is the caller's buffer,
	// descs the gather list, off the destination base of every DstOff.
	src   []byte
	descs []pack.Descriptor

	done sim.Future // completes with nil or the typed transfer error
}

// Wait blocks until the transfer has been delivered and returns nil, or the
// typed error of a failed submission (range violation, revoked segment) or
// transfer. The request must not be used afterwards: its only waiter hands
// it back to the engine.
func (r *DMARequest) Wait(p *sim.Proc) error {
	err, _ := p.Await(&r.done).(error)
	if eng := r.eng; eng != nil {
		*r = DMARequest{}
		eng.free = append(eng.free, r)
	}
	return err
}

// dmaRequest returns a zero request of n's DMA engine, recycled when one is
// free. The node's first request makes the engine.
func (n *Node) dmaRequest() *DMARequest {
	if n.dma == nil {
		n.dma = newDMAEngine(n)
	}
	r := sim.TakeFree(&n.dma.free)
	r.eng = n.dma
	return r
}

// failedDMA is the request of a transfer that was refused at submission.
func failedDMA(err error) *DMARequest {
	r := new(DMARequest)
	r.done.Complete(err)
	return r
}

func newDMAEngine(n *Node) *dmaEngine {
	d := &dmaEngine{node: n, idle: true}
	d.p = n.ic.E.GoDaemon("dma", d.run)
	return d
}

// submit queues req behind the transfers already submitted and wakes the
// engine if it is idle.
func (d *dmaEngine) submit(req *DMARequest) {
	d.queue.Push(req)
	if d.idle {
		d.idle = false
		d.p.Wake()
	}
}

func (d *dmaEngine) run(p *sim.Proc) {
	cfg := &d.node.ic.Cfg
	for {
		if d.queue.Len() == 0 {
			d.idle = true
			p.Park()
		}
		req := d.queue.Pop()
		if req.descs != nil {
			d.runSG(p, cfg, req)
			continue
		}
		start := p.Now()
		p.Sleep(dmaStartup)
		n := int64(len(req.data.B))
		// Failures complete the request with the typed error instead of
		// panicking inside the engine daemon: the submitter gets it from
		// Wait and runs its own recovery.
		if err := req.m.stateErr(); err != nil {
			req.data.Put()
			req.done.Complete(err)
			continue
		}
		if fe := d.drawFault(p, req); fe != nil {
			req.data.Put()
			req.done.Complete(fe)
			continue
		}
		bw := cfg.Mem.EffectiveSourceBW(dmaPeakBW, n)
		if err := d.node.transferCost(p, req.m.seg.owner, n, bw); err != nil {
			req.data.Put()
			req.done.Complete(err)
			continue
		}
		copy(req.m.seg.Local()[req.off:], req.data.B)
		req.data.Put()
		d.node.countDMA(n, 0)
		d.node.ic.met.dmaNS.ObserveDuration(p.Now() - start)
		req.done.Complete(nil)
	}
}

// runSG executes one scatter-gather request: the engine walks the
// descriptor list, gathering source runs and streaming them out in
// destination-contiguous stream transactions (merged runs). Cost is the
// shared SGTransferCost model.
func (d *dmaEngine) runSG(p *sim.Proc, cfg *Config, req *DMARequest) {
	start := p.Now()
	n, runs := pack.DescriptorRuns(req.descs)
	avgRun := n
	if runs > 0 {
		avgRun = n / int64(runs)
	}
	p.Sleep(dmaStartup + time.Duration(len(req.descs))*dmaSGDesc)
	if err := req.m.stateErr(); err != nil {
		req.done.Complete(err)
		return
	}
	if fe := d.drawFault(p, req); fe != nil {
		req.done.Complete(fe)
		return
	}
	bw := cfg.Mem.EffectiveSourceBW(sgStreamBW(avgRun), n)
	if err := d.node.transferCost(p, req.m.seg.owner, n, bw); err != nil {
		req.done.Complete(err)
		return
	}
	dst := req.m.seg.Local()[req.off:]
	for _, desc := range req.descs {
		copy(dst[desc.DstOff:], req.src[desc.SrcOff:desc.SrcOff+desc.Len])
	}
	d.node.countDMA(n, len(req.descs))
	d.node.ic.met.dmaSGNS.ObserveDuration(p.Now() - start)
	req.done.Complete(nil)
}

// drawFault draws an injected DMA transfer error for a remote request,
// charging the retry latency and counting the fault.
func (d *dmaEngine) drawFault(p *sim.Proc, req *DMARequest) error {
	if !req.m.Remote() {
		return nil
	}
	fe := d.node.ic.Cfg.Fault.DrawDMAError(p.Now(), d.node.id, req.m.seg.owner.id)
	if fe == nil {
		return nil
	}
	d.node.stats.TransferErrors++
	p.Sleep(RetryLatency)
	return fe
}

// DMAWrite submits a DMA transfer of src to offset off of the mapped
// segment and returns its request, whose Wait returns once the data has
// been delivered. The submitting CPU only pays the (small) descriptor setup
// cost; transfers queue per adapter. Submission-time failures (range
// violation, revoked segment) and transfer-time failures alike come back
// from Wait.
func (m *Mapping) DMAWrite(p *sim.Proc, off int64, src []byte) *DMARequest {
	if err := m.accessErr(off, int64(len(src))); err != nil {
		return failedDMA(err)
	}
	p.Sleep(2 * WriteIssueOverhead)
	req := m.from.dmaRequest()
	req.m, req.off, req.data = m, off, bufpool.Clone(src)
	req.eng.submit(req)
	return req
}

// DMAWriteSG submits a scatter-gather DMA transfer: every descriptor
// gathers Len bytes at SrcOff of src and lands them at base+DstOff of the
// mapped segment, without any CPU pack pass. The CPU pays the descriptor
// build cost at submission; the engine charges startup, per-descriptor
// processing and the merged-run stream (Config.SGTransferCost). src and
// descs must stay valid and unmodified until the request's Wait returns;
// failures come back from it as for DMAWrite.
func (m *Mapping) DMAWriteSG(p *sim.Proc, base int64, src []byte, descs []pack.Descriptor) *DMARequest {
	n, _ := pack.DescriptorRuns(descs)
	var span int64
	if len(descs) > 0 {
		last := descs[len(descs)-1]
		span = last.DstOff + last.Len
	}
	if err := m.accessErr(base, span); err != nil {
		return failedDMA(err)
	}
	p.Sleep(2*WriteIssueOverhead + time.Duration(len(descs))*DMASGBuild)
	req := m.from.dmaRequest()
	if n == 0 {
		req.done.Complete(nil)
		return req
	}
	req.m, req.off, req.src, req.descs = m, base, src, descs
	req.eng.submit(req)
	return req
}
