package sci

import (
	"time"

	"scimpich/internal/bufpool"
	"scimpich/internal/fault"
	"scimpich/internal/sim"
)

// This file implements transparent remote memory access (PIO): the CPU
// issues loads and stores against mapped segments. Writes are posted
// (write-and-forget) — the issuing process is blocked only for the time the
// data needs to leave the node (which, for large transfers, is resolved by
// the contention-aware flow network) — and become visible at the target one
// wire latency later. StoreBarrier waits for all outstanding deliveries.

// mustRetry runs a fallible transfer, retrying retryable injected faults
// (CRC/sequence/link disturbance) a bounded number of times and panicking
// on persistent or non-retryable failure — the behaviour of the legacy
// infallible entry points, under which a fault plan still cannot make an
// operation silently fail.
func (m *Mapping) mustRetry(try func() error) {
	for attempt := 0; ; attempt++ {
		err := try()
		if err == nil {
			return
		}
		if fe, ok := err.(*fault.Error); ok && fe.Retryable() && attempt < maxTransferRetries {
			m.from.stats.retries.Add(1)
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
	from.stats.transferErrors.Add(1)
	from.ic.countFault(fe.Kind)
	from.ic.tracef(from.name, "%v error on transfer to node %d", fe.Kind, m.seg.owner.id)
	p.Sleep(from.ic.Cfg.RetryLatency)
	return fe
}

// WriteStream performs a contiguous remote write of src at offset off: the
// best case for the adapter's stream buffers (strictly sequential ascending
// addresses). srcWorkingSet is the size of the source data structure, used
// to cap the rate at the local memory read bandwidth (the paper's PIO dip
// beyond 128 kiB).
func (m *Mapping) WriteStream(p *sim.Proc, off int64, src []byte, srcWorkingSet int64) {
	m.mustRetry(func() error { return m.TryWriteStream(p, off, src, srcWorkingSet) })
}

// TryWriteStream is the fallible WriteStream: out-of-range accesses,
// revoked segments, unreachable owners and injected transfer errors are
// returned as typed errors instead of panicking.
func (m *Mapping) TryWriteStream(p *sim.Proc, off int64, src []byte, srcWorkingSet int64) error {
	n := int64(len(src))
	if err := m.rangeErr(off, n); err != nil {
		return err
	}
	if err := m.stateErr(); err != nil {
		return err
	}
	from := m.from
	from.stats.writeOps.Add(1)
	from.stats.bytesWritten.Add(n)
	from.ic.met.bytesWritten.Add(n)
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
	if err := from.tryTransferCost(p, m.seg.owner, n, bw); err != nil {
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
	n := int64(len(src))
	if n == 0 {
		return
	}
	if accessSize <= 0 || accessSize > n {
		accessSize = n
	}
	if stride < accessSize {
		stride = accessSize
	}
	accesses := (n + accessSize - 1) / accessSize
	span := (accesses-1)*stride + (n - (accesses-1)*accessSize)
	m.checkRange(off, span)
	from := m.from
	from.stats.writeOps.Add(accesses)
	from.stats.bytesWritten.Add(n)
	from.ic.met.bytesWritten.Add(n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		p.Sleep(cfg.Mem.CopyCost(n, accessSize, span))
		scatter(m.seg.Local()[off:], src, accessSize, stride)
		return
	}
	var bw float64
	if stride == accessSize {
		// Dense run: consecutive accesses form one contiguous stream, so
		// the stream-buffer gather model applies, not the strided
		// write-combine penalty.
		bw = cfg.StreamWriteBW(n)
	} else {
		bw = cfg.StridedWriteBW(accessSize, stride)
	}
	from.transferCost(p, m.seg.owner, n, bw)
	from.postDelivery(m.seg, off, bufpool.Clone(src), accessSize, stride)
}

// WritePut is the MPI put path: a strided write whose sustained rate is
// additionally capped at the adapter's SustainedPutBW (the paper's Table 2
// measures ~121-123 MiB/s per node for the one-sided put workload, below
// the raw strided-store peak of the §4.3 microbenchmark).
func (m *Mapping) WritePut(p *sim.Proc, off int64, src []byte, accessSize, stride int64) {
	m.mustRetry(func() error { return m.TryWritePut(p, off, src, accessSize, stride) })
}

// TryWritePut is the fallible WritePut: typed errors instead of panics.
func (m *Mapping) TryWritePut(p *sim.Proc, off int64, src []byte, accessSize, stride int64) error {
	n := int64(len(src))
	if n == 0 {
		return nil
	}
	if accessSize <= 0 || accessSize > n {
		accessSize = n
	}
	if stride < accessSize {
		stride = accessSize
	}
	accesses := (n + accessSize - 1) / accessSize
	span := (accesses-1)*stride + (n - (accesses-1)*accessSize)
	if err := m.rangeErr(off, span); err != nil {
		return err
	}
	if err := m.stateErr(); err != nil {
		return err
	}
	from := m.from
	from.stats.writeOps.Add(accesses)
	from.stats.bytesWritten.Add(n)
	from.ic.met.bytesWritten.Add(n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		p.Sleep(cfg.Mem.CopyCost(n, accessSize, span))
		scatter(m.seg.Local()[off:], src, accessSize, stride)
		return nil
	}
	start := p.Now()
	if err := m.drawPIOFault(p); err != nil {
		return err
	}
	var bw float64
	if stride == accessSize {
		// Dense put: contiguous ascending stores, priced by the stream
		// model (see WriteStrided).
		bw = cfg.StreamWriteBW(n)
	} else {
		bw = cfg.StridedWriteBW(accessSize, stride)
	}
	if bw > cfg.SustainedPutBW {
		bw = cfg.SustainedPutBW
	}
	if err := from.tryTransferCost(p, m.seg.owner, n, bw); err != nil {
		return err
	}
	from.postDelivery(m.seg, off, bufpool.Clone(src), accessSize, stride)
	from.ic.met.putNS.ObserveDuration(p.Now() - start)
	return nil
}

// WriteWord writes a small value (at most one SCI transaction) and returns
// immediately; visibility follows after the wire latency. It is the
// building block for flags and control words.
func (m *Mapping) WriteWord(p *sim.Proc, off int64, src []byte) {
	n := int64(len(src))
	m.checkRange(off, n)
	from := m.from
	from.stats.writeOps.Add(1)
	from.stats.bytesWritten.Add(n)
	p.Sleep(from.ic.Cfg.WriteIssueOverhead)
	if !m.Remote() {
		copy(m.seg.Local()[off:], src)
		return
	}
	from.postDelivery(m.seg, off, bufpool.Clone(src), 0, 0)
}

// Read performs a transparent remote read into dst. The CPU stalls until
// the data arrives; bandwidth is a fraction of the write bandwidth (the
// paper's motivation for the remote-put optimization of MPI_Get).
func (m *Mapping) Read(p *sim.Proc, off int64, dst []byte) {
	m.mustRetry(func() error { return m.TryRead(p, off, dst) })
}

// TryRead is the fallible Read: typed errors instead of panics. A failed
// read leaves dst untouched.
func (m *Mapping) TryRead(p *sim.Proc, off int64, dst []byte) error {
	n := int64(len(dst))
	if err := m.rangeErr(off, n); err != nil {
		return err
	}
	if err := m.stateErr(); err != nil {
		return err
	}
	from := m.from
	from.stats.readOps.Add(1)
	from.stats.bytesRead.Add(n)
	from.ic.met.bytesRead.Add(n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		p.Sleep(cfg.Mem.CopyCost(n, n, n))
		copy(dst, m.seg.Local()[off:off+n])
		return nil
	}
	start := p.Now()
	from.ic.faults.maybeRetry(p, &from.stats)
	if err := from.tryReachable(p, m.seg.owner); err != nil {
		return err
	}
	if err := from.tryLinkClear(p, m.seg.owner); err != nil {
		return err
	}
	if err := m.drawPIOFault(p); err != nil {
		return err
	}
	p.Sleep(sim.RateDuration(n, cfg.ReadBW(n)))
	copy(dst, m.seg.Local()[off:off+n])
	from.ic.met.readNS.ObserveDuration(p.Now() - start)
	return nil
}

// ReadStrided reads count accesses of accessSize bytes placed stride bytes
// apart into dst (gathering them densely). Every access stalls like Read.
func (m *Mapping) ReadStrided(p *sim.Proc, off int64, dst []byte, accessSize, stride int64) {
	n := int64(len(dst))
	if n == 0 {
		return
	}
	if accessSize <= 0 || accessSize > n {
		accessSize = n
	}
	if stride < accessSize {
		stride = accessSize
	}
	accesses := (n + accessSize - 1) / accessSize
	span := (accesses-1)*stride + (n - (accesses-1)*accessSize)
	m.checkRange(off, span)
	from := m.from
	from.stats.readOps.Add(accesses)
	from.stats.bytesRead.Add(n)
	from.ic.met.bytesRead.Add(n)
	cfg := &from.ic.Cfg
	if !m.Remote() {
		p.Sleep(cfg.Mem.CopyCost(n, accessSize, span))
		gather(dst, m.seg.Local()[off:], accessSize, stride)
		return
	}
	from.ic.faults.maybeRetry(p, &from.stats)
	// Each access pays its own stall sequence; strided reads cannot be
	// gathered by the stream buffers.
	per := sim.RateDuration(accessSize, cfg.ReadBW(accessSize))
	p.Sleep(time.Duration(accesses) * per)
	gather(dst, m.seg.Local()[off:], accessSize, stride)
}

// scatter copies src into dst as accessSize-byte pieces stride apart.
func scatter(dst, src []byte, accessSize, stride int64) {
	var so, do int64
	n := int64(len(src))
	for so < n {
		end := so + accessSize
		if end > n {
			end = n
		}
		copy(dst[do:], src[so:end])
		so = end
		do += stride
	}
}

// gather is the inverse of scatter.
func gather(dst, src []byte, accessSize, stride int64) {
	var so, do int64
	n := int64(len(dst))
	for do < n {
		end := do + accessSize
		if end > n {
			end = n
		}
		copy(dst[do:end], src[so:so+(end-do)])
		do = end
		so += stride
	}
}

// BlockWriter batches many small consecutive remote writes (the
// direct_pack_ff pattern: leaves of a derived datatype packed directly into
// remote memory at ascending addresses). Bytes are deposited immediately;
// Flush charges the accumulated virtual-time cost as a single
// contention-aware transfer and registers the delivery for the next store
// barrier.
type BlockWriter struct {
	m          *Mapping
	p          *sim.Proc
	workingSet int64
	bytes      int64
	cost       time.Duration
	flushed    bool
	err        error // first deposit error; reported by TryFlush
}

// NewBlockWriter starts a batched block write session through the mapping.
// workingSet is the size of the source data structure being traversed (it
// selects the cache level feeding local copies).
func (m *Mapping) NewBlockWriter(p *sim.Proc, workingSet int64) *BlockWriter {
	return &BlockWriter{m: m, p: p, workingSet: workingSet}
}

// Write deposits one contiguous block at off and accounts its cost:
// per-block issue overhead plus the stream-buffer gather model. After a
// deposit has failed (range violation or revoked segment) further writes
// are ignored; the sticky error is reported by TryFlush (Flush panics).
func (w *BlockWriter) Write(off int64, src []byte) {
	n := int64(len(src))
	if n == 0 || w.err != nil {
		return
	}
	if err := w.m.rangeErr(off, n); err != nil {
		w.err = err
		return
	}
	if err := w.m.stateErr(); err != nil {
		w.err = err
		return
	}
	copy(w.m.seg.Local()[off:], src)
	cfg := &w.m.from.ic.Cfg
	w.bytes += n
	w.m.from.stats.writeOps.Add(1)
	w.m.from.stats.bytesWritten.Add(n)
	w.m.from.ic.met.bytesWritten.Add(n)
	if w.m.Remote() {
		w.cost += cfg.WriteIssueOverhead + sim.RateDuration(n, cfg.StreamWriteBW(n))
	} else {
		w.cost += cfg.Mem.BlockCopyCostFF(n, n, w.workingSet)
	}
}

// Flush charges the batched cost. For remote mappings the batch is replayed
// as one flow transfer at the equivalent bandwidth, so it contends with
// other ring traffic; the delivery is tracked for StoreBarrier.
func (w *BlockWriter) Flush() {
	if err := w.TryFlush(); err != nil {
		panic(err)
	}
}

// TryFlush is the fallible Flush: deposit errors, unreachable owners and
// injected transfer errors are returned instead of panicking. Flushing
// twice still panics (a programming error, not a fault).
func (w *BlockWriter) TryFlush() error {
	if w.flushed {
		panic("sci: BlockWriter flushed twice")
	}
	w.flushed = true
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
	cost := w.cost
	if cost <= 0 {
		// WriteIssueOverhead 0 plus sub-nanosecond stream costs can round
		// the batch cost to zero; charge a minimal cost instead of deriving
		// an infinite bandwidth below.
		cost = time.Nanosecond
	}
	eff := float64(w.bytes) / cost.Seconds()
	if err := from.tryTransferCost(w.p, w.m.seg.owner, w.bytes, eff); err != nil {
		return err
	}
	from.postDelivery(w.m.seg, 0, nil, 0, 0)
	from.ic.met.blockFlushNS.ObserveDuration(w.p.Now() - start)
	return nil
}
