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
	// sgBytes, sgRuns and sgBlocks are the list's DescriptorRuns, taken at
	// submission.
	src      []byte
	descs    []pack.Descriptor
	sgBytes  int64
	sgRuns   int
	sgBlocks int

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
	d.p = n.ic.E.GoDaemon("dma", dmaMain)
	d.p.SetArg(d)
	return d
}

// dmaMain starts a DMA engine's daemon: a top-level function, where the
// method value d.run would be a closure per engine.
func dmaMain(p *sim.Proc) { p.TakeArg().(*dmaEngine).run(p) }

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
		bw := cfg.Mem.EffectiveSourceBW(DMAPeakBW, n)
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
	n, runs := req.sgBytes, req.sgRuns
	avgRun := n
	if runs > 0 {
		avgRun = n / int64(runs)
	}
	p.Sleep(dmaStartup + time.Duration(req.sgBlocks)*dmaSGDesc)
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
	for i := range req.descs {
		req.descs[i].Gather(dst, req.src)
	}
	d.node.countDMA(n, req.sgBlocks)
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
// gathers its blocks at SrcOff + i·Stride of src and lands them back to back
// at base+DstOff of the mapped segment, without any CPU pack pass. The CPU
// pays the descriptor build cost at submission; the engine charges startup,
// per-descriptor processing and the merged-run stream
// (Config.SGTransferCost), both per flat descriptor (block). src and descs
// must stay valid and unmodified until the request's Wait returns; failures
// come back from it as for DMAWrite, an entry that reaches outside the
// segment or src, or has Count < 1, as ErrOutOfRange.
func (m *Mapping) DMAWriteSG(p *sim.Proc, base int64, src []byte, descs []pack.Descriptor) *DMARequest {
	span, err := sgSpan(descs, int64(len(src)))
	if err == nil {
		err = m.accessErr(base, span)
	}
	if err != nil {
		return failedDMA(err)
	}
	n, runs, blocks := pack.DescriptorRuns(descs)
	p.Sleep(2*WriteIssueOverhead + time.Duration(blocks)*DMASGBuild)
	req := m.from.dmaRequest()
	if n == 0 {
		req.done.Complete(nil)
		return req
	}
	req.m, req.off, req.src, req.descs = m, base, src, descs
	req.sgBytes, req.sgRuns, req.sgBlocks = n, runs, blocks
	req.eng.submit(req)
	return req
}

// sgSpan returns the destination bytes a descriptor list reaches, the
// largest end over all its entries, after checking the shape of every
// entry: at least one block, no negative length or destination offset, and
// every block inside a source of srcLen bytes.
func sgSpan(descs []pack.Descriptor, srcLen int64) (span int64, err error) {
	for i := range descs {
		d := &descs[i]
		if d.Count < 1 || d.Len < 0 || d.DstOff < 0 {
			return 0, ErrOutOfRange{Off: d.DstOff, Len: d.Count * d.Len, Size: srcLen}
		}
		lo, hi := d.SrcOff, d.SrcOff+(d.Count-1)*d.Stride
		if hi < lo {
			lo, hi = hi, lo
		}
		if lo < 0 || hi+d.Len > srcLen {
			return 0, ErrOutOfRange{Off: lo, Len: hi + d.Len - lo, Size: srcLen}
		}
		span = max(span, d.DstOff+d.Count*d.Len)
	}
	return span, nil
}
