package sci

import (
	"time"

	"scimpich/internal/bufpool"
	"scimpich/internal/fault"
	"scimpich/internal/memmodel"
	"scimpich/internal/sim"
)

// This file implements transparent remote memory access (PIO): the CPU
// issues loads and stores against mapped segments. Writes are posted
// (write-and-forget) — the issuing process is blocked only for the time the
// data needs to leave the node (which, for large transfers, is resolved by
// the contention-aware flow network) — and become visible at the target one
// wire latency later. StoreBarrier waits for all outstanding deliveries.

// Every access has one body, the fallible one: out-of-range windows,
// revoked segments, unreachable owners and injected transfer errors are
// returned as typed errors. The names without "try" are the panicking
// conveniences for code that issues accesses as statements (benchmarks,
// tests): each is one must over its fallible core.

// must runs a fallible access, retrying retryable injected faults
// (CRC/sequence/link disturbance) a bounded number of times and panicking
// on persistent or non-retryable failure, so under a fault plan a
// statement-style access still cannot silently fail.
func (m *Mapping) must(try func() error) {
	for attempt := 0; ; attempt++ {
		err := try()
		if err == nil {
			return
		}
		if fe, ok := err.(*fault.Error); ok && fe.Retryable() && attempt < maxTransferRetries {
			m.from.stats.Retries++
			continue
		}
		panic(err)
	}
}

// drawPIOFault consults the fault plan for an injected CRC/sequence error
// on one remote PIO transfer. The failed attempt costs one retry latency.
func (m *Mapping) drawPIOFault(p *sim.Proc) error {
	from := m.from
	fe := from.ic.Cfg.Fault.DrawWriteError(p.Now(), from.id, m.seg.owner.id)
	if fe == nil {
		return nil
	}
	from.stats.TransferErrors++
	p.Sleep(RetryLatency)
	return fe
}

// WriteStream performs a contiguous remote write of src at offset off: the
// best case for the adapter's stream buffers (strictly sequential ascending
// addresses). srcWorkingSet is the size of the source data structure, used
// to cap the rate at the local memory read bandwidth (the paper's PIO dip
// beyond 128 kiB).
func (m *Mapping) WriteStream(p *sim.Proc, off int64, src []byte, srcWorkingSet int64) {
	m.must(func() error { return m.TryWriteStream(p, off, src, srcWorkingSet) })
}

// TryWriteStream is the fallible WriteStream.
func (m *Mapping) TryWriteStream(p *sim.Proc, off int64, src []byte, srcWorkingSet int64) error {
	n := int64(len(src))
	if err := m.accessErr(off, n); err != nil {
		return err
	}
	from := m.from
	from.countWrite(1, n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		// Local store through the mapping: plain memory copy.
		p.Sleep(cfg.Mem.CopyCost(n, n, srcWorkingSet))
		copy(m.seg.Local()[off:], src)
		return nil
	}
	start := p.Now()
	if err := m.drawPIOFault(p); err != nil {
		return err
	}
	bw := cfg.StreamWriteBW(n)
	if srcWorkingSet > 0 {
		bw = cfg.Mem.EffectiveSourceBW(bw, srcWorkingSet)
	}
	if err := from.transferCost(p, m.seg.owner, n, bw); err != nil {
		return err
	}
	from.postDelivery(m.seg, off, bufpool.Clone(src), 0, 0)
	from.ic.met.writeStreamNS.ObserveDuration(p.Now() - start)
	return nil
}

// WriteStrided writes len(src) bytes as accesses of accessSize bytes placed
// stride bytes apart, starting at off — the access pattern of the sparse
// one-sided benchmark and the §4.3 strided-write study. The cost depends on
// stride alignment relative to the CPU's write-combine buffer.
func (m *Mapping) WriteStrided(p *sim.Proc, off int64, src []byte, accessSize, stride int64) {
	m.must(func() error { return m.tryWriteStrided(p, off, src, accessSize, stride, false) })
}

// WritePut is the MPI put path: a strided write whose sustained rate is
// additionally capped at the adapter's SustainedPutBW (the paper's Table 2
// measures ~121-123 MiB/s per node for the one-sided put workload, below
// the raw strided-store peak of the §4.3 microbenchmark).
func (m *Mapping) WritePut(p *sim.Proc, off int64, src []byte, accessSize, stride int64) {
	m.must(func() error { return m.TryWritePut(p, off, src, accessSize, stride) })
}

// TryWritePut is the fallible WritePut.
func (m *Mapping) TryWritePut(p *sim.Proc, off int64, src []byte, accessSize, stride int64) error {
	return m.tryWriteStrided(p, off, src, accessSize, stride, true)
}

// tryWriteStrided is the one strided-write body; put selects the MPI put
// path (SustainedPutBW cap, put latency histogram).
func (m *Mapping) tryWriteStrided(p *sim.Proc, off int64, src []byte, accessSize, stride int64, put bool) error {
	n := int64(len(src))
	if n == 0 {
		return nil
	}
	a := memmodel.StridedAccess(n, accessSize, stride)
	if err := m.accessErr(off, a.Span); err != nil {
		return err
	}
	from := m.from
	from.countWrite(a.Accesses, n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		p.Sleep(cfg.Mem.CopyCost(n, a.Access, a.Span))
		memmodel.Scatter(m.seg.Local()[off:], src, a.Access, a.Stride)
		return nil
	}
	start := p.Now()
	if err := m.drawPIOFault(p); err != nil {
		return err
	}
	var bw float64
	if a.Stride == a.Access {
		// Dense run: consecutive accesses form one contiguous stream, so
		// the stream-buffer gather model applies, not the strided
		// write-combine penalty.
		bw = cfg.StreamWriteBW(n)
	} else {
		bw = cfg.StridedWriteBW(a.Access, a.Stride)
	}
	if put && bw > SustainedPutBW {
		bw = SustainedPutBW
	}
	if err := from.transferCost(p, m.seg.owner, n, bw); err != nil {
		return err
	}
	from.postDelivery(m.seg, off, bufpool.Clone(src), a.Access, a.Stride)
	if put {
		from.ic.met.putNS.ObserveDuration(p.Now() - start)
	}
	return nil
}

// WriteWord writes a small value (at most one SCI transaction) and returns
// immediately; visibility follows after the wire latency. It is the
// building block for flags and control words.
func (m *Mapping) WriteWord(p *sim.Proc, off int64, src []byte) {
	m.must(func() error { return m.tryWriteWord(p, off, src) })
}

func (m *Mapping) tryWriteWord(p *sim.Proc, off int64, src []byte) error {
	n := int64(len(src))
	if err := m.accessErr(off, n); err != nil {
		return err
	}
	from := m.from
	from.countWrite(1, n)
	p.Sleep(WriteIssueOverhead)
	if !m.Remote() {
		copy(m.seg.Local()[off:], src)
		return nil
	}
	if err := from.tryReachable(p, m.seg.owner); err != nil {
		return err
	}
	from.postDelivery(m.seg, off, bufpool.Clone(src), 0, 0)
	return nil
}

// Read performs a transparent remote read into dst. The CPU stalls until
// the data arrives; bandwidth is a fraction of the write bandwidth (the
// paper's motivation for the remote-put optimization of MPI_Get).
func (m *Mapping) Read(p *sim.Proc, off int64, dst []byte) {
	m.must(func() error { return m.TryRead(p, off, dst) })
}

// TryRead is the fallible Read. A failed read leaves dst untouched.
func (m *Mapping) TryRead(p *sim.Proc, off int64, dst []byte) error {
	n := int64(len(dst))
	if err := m.accessErr(off, n); err != nil {
		return err
	}
	from := m.from
	from.countRead(1, n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		p.Sleep(cfg.Mem.CopyCost(n, n, n))
		copy(dst, m.seg.Local()[off:off+n])
		return nil
	}
	start := p.Now()
	from.retransmit(p)
	if err := from.tryReachable(p, m.seg.owner); err != nil {
		return err
	}
	if err := from.tryLinkClear(p, m.seg.owner); err != nil {
		return err
	}
	if err := m.drawPIOFault(p); err != nil {
		return err
	}
	p.Sleep(sim.RateDuration(n, readBW(n)))
	copy(dst, m.seg.Local()[off:off+n])
	from.ic.met.readNS.ObserveDuration(p.Now() - start)
	return nil
}

// ReadStrided reads count accesses of accessSize bytes placed stride bytes
// apart into dst (gathering them densely). Every access stalls like Read.
func (m *Mapping) ReadStrided(p *sim.Proc, off int64, dst []byte, accessSize, stride int64) {
	m.must(func() error { return m.tryReadStrided(p, off, dst, accessSize, stride) })
}

func (m *Mapping) tryReadStrided(p *sim.Proc, off int64, dst []byte, accessSize, stride int64) error {
	n := int64(len(dst))
	if n == 0 {
		return nil
	}
	a := memmodel.StridedAccess(n, accessSize, stride)
	if err := m.accessErr(off, a.Span); err != nil {
		return err
	}
	from := m.from
	from.countRead(a.Accesses, n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		p.Sleep(cfg.Mem.CopyCost(n, a.Access, a.Span))
		memmodel.Gather(dst, m.seg.Local()[off:], a.Access, a.Stride)
		return nil
	}
	from.retransmit(p)
	if err := from.tryReachable(p, m.seg.owner); err != nil {
		return err
	}
	// Each access pays its own stall sequence; strided reads cannot be
	// gathered by the stream buffers.
	per := sim.RateDuration(a.Access, readBW(a.Access))
	p.Sleep(time.Duration(a.Accesses) * per)
	memmodel.Gather(dst, m.seg.Local()[off:], a.Access, a.Stride)
	return nil
}

// BlockWriter batches many small consecutive remote writes (the
// direct_pack_ff pattern: leaves of a derived datatype packed directly into
// remote memory at ascending addresses). Bytes are deposited immediately;
// Flush charges the accumulated virtual-time cost as a single
// contention-aware transfer and registers the delivery for the next store
// barrier. A session ends with Flush, which also hands the writer back to
// the importing node's free list: it must not be used afterwards.
type BlockWriter struct {
	m          *Mapping
	p          *sim.Proc
	workingSet int64
	bytes      int64
	cost       time.Duration
	flushed    bool
	err        error // first deposit error; reported by Flush
}

// NewBlockWriter starts a batched block write session through the mapping.
// workingSet is the size of the source data structure being traversed (it
// selects the cache level feeding local copies).
func (m *Mapping) NewBlockWriter(p *sim.Proc, workingSet int64) *BlockWriter {
	w := sim.TakeFree(&m.from.bwFree)
	*w = BlockWriter{m: m, p: p, workingSet: workingSet}
	return w
}

// Write deposits one contiguous block at off and accounts its cost:
// per-block issue overhead plus the stream-buffer gather model. After a
// deposit has failed (range violation or revoked segment) further writes
// are ignored; the sticky error is reported by Flush.
func (w *BlockWriter) Write(off int64, src []byte) {
	n := int64(len(src))
	if n == 0 || w.err != nil {
		return
	}
	if err := w.m.accessErr(off, n); err != nil {
		w.err = err
		return
	}
	copy(w.m.seg.Local()[off:], src)
	cfg := &w.m.from.ic.Cfg
	w.bytes += n
	w.m.from.countWrite(1, n)
	if w.m.Remote() {
		w.cost += WriteIssueOverhead + sim.RateDuration(n, cfg.StreamWriteBW(n))
	} else {
		w.cost += cfg.Mem.BlockCopyCostFF(n, n, w.workingSet)
	}
}

// Flush charges the batched cost. For remote mappings the batch is replayed
// as one flow transfer at the equivalent bandwidth, so it contends with
// other ring traffic; the delivery is tracked for StoreBarrier. Deposit
// errors, unreachable owners and injected transfer errors are returned.
// Flushing twice panics (a programming error, not a fault).
func (w *BlockWriter) Flush() error {
	if w.flushed {
		panic("sci: BlockWriter flushed twice")
	}
	w.flushed = true
	err := w.flush()
	w.m.from.bwFree = append(w.m.from.bwFree, w)
	return err
}

func (w *BlockWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	if w.bytes == 0 {
		return nil
	}
	from := w.m.from
	if !w.m.Remote() {
		w.p.Sleep(w.cost)
		return nil
	}
	if err := w.m.stateErr(); err != nil {
		return err
	}
	start := w.p.Now()
	if err := w.m.drawPIOFault(w.p); err != nil {
		return err
	}
	// Every remote block added WriteIssueOverhead, so the cost is positive.
	eff := float64(w.bytes) / w.cost.Seconds()
	if err := from.transferCost(w.p, w.m.seg.owner, w.bytes, eff); err != nil {
		return err
	}
	from.postDelivery(w.m.seg, 0, nil, 0, 0)
	from.ic.met.blockFlushNS.ObserveDuration(w.p.Now() - start)
	return nil
}
