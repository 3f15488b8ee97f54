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
// which therefore must stay valid and unmodified until the future
// completes (the protocol layers above await it before reusing anything).
type dmaEngine struct {
	node  *Node
	queue *sim.Chan
}

type dmaRequest struct {
	m    *Mapping
	off  int64
	data *bufpool.Buf // staged source bytes; recycled when the engine is done

	// Scatter-gather requests (descs != nil): src is the caller's buffer,
	// descs the gather list, off the destination base of every DstOff.
	src   []byte
	descs []pack.Descriptor

	done *sim.Future
}

func newDMAEngine(n *Node) *dmaEngine {
	d := &dmaEngine{node: n, queue: sim.NewChan(1 << 20)}
	n.ic.E.GoDaemon("dma", d.run)
	return d
}

func (d *dmaEngine) run(p *sim.Proc) {
	cfg := &d.node.ic.Cfg
	for {
		req := p.Recv(d.queue).(*dmaRequest)
		if req.descs != nil {
			d.runSG(p, cfg, req)
			continue
		}
		start := p.Now()
		p.Sleep(cfg.DMAStartup)
		d.node.ic.faults.maybeRetry(p, &d.node.stats)
		n := int64(len(req.data.B))
		// Failures complete the future with the typed error instead of
		// panicking inside the engine daemon: the submitter inspects the
		// awaited value and runs its own recovery.
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
		bw := cfg.Mem.EffectiveSourceBW(cfg.DMAPeakBW, n)
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
func (d *dmaEngine) runSG(p *sim.Proc, cfg *Config, req *dmaRequest) {
	start := p.Now()
	n, runs := pack.DescriptorRuns(req.descs)
	avgRun := n
	if runs > 0 {
		avgRun = n / int64(runs)
	}
	p.Sleep(cfg.DMAStartup + time.Duration(len(req.descs))*cfg.DMASGDesc)
	d.node.ic.faults.maybeRetry(p, &d.node.stats)
	if err := req.m.stateErr(); err != nil {
		req.done.Complete(err)
		return
	}
	if fe := d.drawFault(p, req); fe != nil {
		req.done.Complete(fe)
		return
	}
	bw := cfg.Mem.EffectiveSourceBW(cfg.SGStreamBW(avgRun), n)
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
func (d *dmaEngine) drawFault(p *sim.Proc, req *dmaRequest) error {
	if !req.m.Remote() {
		return nil
	}
	cfg := &d.node.ic.Cfg
	fe := cfg.Fault.DrawDMAError(p.Now(), d.node.id, req.m.seg.owner.id)
	if fe == nil {
		return nil
	}
	d.node.stats.TransferErrors++
	d.node.ic.countFault(fe.Kind)
	d.node.ic.tracef(d.node.name, "%v error on DMA to node %d", fe.Kind, req.m.seg.owner.id)
	p.Sleep(cfg.RetryLatency)
	return fe
}

// DMAWrite submits a DMA transfer of src to offset off of the mapped
// segment and returns a future that completes when the data has been
// delivered. The submitting CPU only pays the (small) descriptor setup
// cost; transfers queue per adapter. The future's value is nil on success
// or the typed transfer error. A submission failure panics.
func (m *Mapping) DMAWrite(p *sim.Proc, off int64, src []byte) *sim.Future {
	return mustSubmit(m.TryDMAWrite(p, off, src))
}

func mustSubmit(fut *sim.Future, err error) *sim.Future {
	if err != nil {
		panic(err)
	}
	return fut
}

// TryDMAWrite is the fallible DMAWrite: submission-time failures (range
// violation, revoked segment) are returned immediately; transfer-time
// failures complete the future with a typed error.
func (m *Mapping) TryDMAWrite(p *sim.Proc, off int64, src []byte) (*sim.Future, error) {
	if err := m.accessErr(off, int64(len(src))); err != nil {
		return nil, err
	}
	done := sim.NewFuture()
	p.Sleep(2 * m.from.ic.Cfg.WriteIssueOverhead)
	req := &dmaRequest{m: m, off: off, data: bufpool.Clone(src), done: done}
	p.Send(m.from.dma.queue, req)
	return done, nil
}

// DMAWriteSG submits a scatter-gather DMA transfer: every descriptor
// gathers Len bytes at SrcOff of src and lands them at base+DstOff of the
// mapped segment, without any CPU pack pass. The CPU pays the descriptor
// build cost at submission; the engine charges startup, per-descriptor
// processing and the merged-run stream (Config.SGTransferCost). src and
// descs must stay valid and unmodified until the returned future
// completes; its value is nil on success or the typed transfer error.
// Submission-time failures (range violation, revoked segment) are returned
// immediately.
func (m *Mapping) DMAWriteSG(p *sim.Proc, base int64, src []byte, descs []pack.Descriptor) (*sim.Future, error) {
	n, _ := pack.DescriptorRuns(descs)
	var span int64
	if len(descs) > 0 {
		last := descs[len(descs)-1]
		span = last.DstOff + last.Len
	}
	if err := m.accessErr(base, span); err != nil {
		return nil, err
	}
	cfg := &m.from.ic.Cfg
	p.Sleep(2*cfg.WriteIssueOverhead + time.Duration(len(descs))*cfg.DMASGBuild)
	done := sim.NewFuture()
	if n == 0 {
		done.Complete(nil)
		return done, nil
	}
	req := &dmaRequest{m: m, off: base, src: src, descs: descs, done: done}
	p.Send(m.from.dma.queue, req)
	return done, nil
}
