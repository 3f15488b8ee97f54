// Package shmem models intra-node shared memory communication: processes on
// the same node exchange data through shared buffers whose access costs come
// from the node's memory-hierarchy model, with large copies contending on
// the node's memory bus.
//
// The paper's SMI library makes all SCI-MPICH techniques work identically
// over intra-node shared memory; this package is the second transport below
// that abstraction. The bus congestion model also powers the comparator SMP
// platforms of Figure 12 (Sun Fire 6800, 4-way Xeon), whose scaling is
// limited by their memory system design.
package shmem

import (
	"fmt"
	"time"

	"scimpich/internal/flow"
	"scimpich/internal/memmodel"
	"scimpich/internal/sim"
)

// Bus is one node's (or one SMP machine's) memory system.
type Bus struct {
	net *flow.Network
	bus [1]flow.Hop // the memory bus, as the one-hop path of every transfer on it
	mem *memmodel.Model
}

// Config describes an SMP memory system.
type Config struct {
	// Mem is the per-process memory hierarchy model.
	Mem *memmodel.Model
	// BusBW is the aggregate memory bus bandwidth in bytes/second.
	BusBW float64
}

// SignalLatency is the flag-propagation latency between processes.
const SignalLatency time.Duration = 400 * time.Nanosecond

// busCongestion degrades every bus under concurrent access. It is held as
// the interface, so that building a bus boxes nothing.
var busCongestion flow.CongestionModel = flow.BusCongestion{PerFlowPenalty: 0.12, Floor: 0.35}

// DefaultConfig returns the intra-node configuration of the paper's dual
// Pentium-III nodes.
func DefaultConfig() Config {
	return Config{
		Mem:   memmodel.PentiumIII800(),
		BusBW: 640e6,
	}
}

// NewBuses builds the memory systems of n nodes on the engine, in one slab;
// their links are one slab too. A private flow network is created if net is
// nil.
func NewBuses(e sim.Host, net *flow.Network, n int, cfg Config) []Bus {
	if cfg.Mem == nil {
		panic("shmem: config requires a memory model")
	}
	if net == nil {
		net = flow.NewNetworkOn(e)
	}
	links := flow.NewLinks(n, cfg.BusBW, busCongestion)
	buses := make([]Bus, n)
	for i := range buses {
		buses[i] = Bus{net: net, bus: [1]flow.Hop{{Link: &links[i], Weight: 1}}, mem: cfg.Mem}
	}
	return buses
}

// Network returns the flow network the bus's transfers run on.
func (b *Bus) Network() *flow.Network { return b.net }

// Charge bills an arbitrary memory operation of `bytes` bytes with the
// given pre-computed cost, contending on the bus for large operations.
// Callers that compute their own copy costs (the MPI pack/unpack engines)
// use this so that concurrent memory work on a node shares the bus exactly
// like direct region accesses.
func (b *Bus) Charge(p *sim.Proc, bytes int64, cost time.Duration) {
	if bytes <= 0 || cost <= 0 {
		return
	}
	if bytes < flowThreshold {
		p.Sleep(cost)
		return
	}
	rate := float64(bytes) / cost.Seconds()
	b.net.Transfer(p, b.bus[:], bytes, rate)
}

// CopyCost is what a bus of this configuration bills each of flows
// concurrent copies of bytes whose memory-hierarchy cost is cost
// (Bus.Charge): the cost itself below flowThreshold, and above it no less
// than the bytes at the copy's share of the bus, which busCongestion
// degrades per concurrent copy as the flow network does.
func (c Config) CopyCost(bytes int64, cost time.Duration, flows int) time.Duration {
	if bytes < flowThreshold || cost <= 0 {
		return cost
	}
	flows = max(flows, 1)
	src := float64(bytes) / cost.Seconds()
	share := c.BusBW * busCongestion.AchievedFraction(float64(flows)*src/c.BusBW, flows) / float64(flows)
	return max(cost, sim.RateDuration(bytes, min(src, share)))
}

// Region is a shared memory region on the bus. Its memory is materialised
// on the first access (see memmodel.Backing).
type Region struct {
	bus *Bus
	mem memmodel.Backing
}

// Alloc allocates a shared region of the given size.
func (b *Bus) Alloc(size int64) *Region {
	r := new(Region)
	b.AllocInto(r, size)
	return r
}

// AllocInto is Alloc into the caller's storage (an element of a slab).
func (b *Bus) AllocInto(r *Region, size int64) {
	if size < 0 {
		panic("shmem: negative region size")
	}
	*r = Region{bus: b, mem: memmodel.Unbacked(size)}
}

// AllocBacked wraps an existing buffer as a shared region, so one backing
// array can be visible through several transports (used for one-sided
// communication windows).
func (b *Bus) AllocBacked(buf []byte) *Region {
	return &Region{bus: b, mem: memmodel.BackedBy(buf)}
}

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return r.mem.Size() }

// Local returns the raw shared buffer.
func (r *Region) Local() []byte { return r.mem.Bytes() }

func (r *Region) checkRange(off, n int64) {
	if off < 0 || n < 0 || off > r.Size()-n { // not off+n: it wraps near math.MaxInt64
		panic(fmt.Sprintf("shmem: access [%d, %d) outside region of %d bytes", off, off+n, r.Size()))
	}
}

// flowThreshold is the copy size above which transfers contend on the bus
// through the flow network instead of sleeping a fixed cost.
const flowThreshold = 8192

// charge bills a copy of `bytes` bytes with the given cost.
func (r *Region) charge(p *sim.Proc, cost time.Duration, bytes int64) {
	r.bus.Charge(p, bytes, cost)
}

// WriteStream copies src into the region at off.
func (r *Region) WriteStream(p *sim.Proc, off int64, src []byte, srcWorkingSet int64) {
	n := int64(len(src))
	r.checkRange(off, n)
	ws := srcWorkingSet
	if ws == 0 {
		ws = n
	}
	r.charge(p, r.bus.mem.CopyCost(n, n, ws), n)
	copy(r.Local()[off:], src)
}

// WriteStrided scatters src into the region as accesses of accessSize
// bytes, stride apart.
func (r *Region) WriteStrided(p *sim.Proc, off int64, src []byte, accessSize, stride int64) {
	n := int64(len(src))
	if n == 0 {
		return
	}
	a := memmodel.StridedAccess(n, accessSize, stride)
	r.checkRange(off, a.Span)
	r.charge(p, r.bus.mem.CopyCost(n, a.Access, a.Span), n)
	memmodel.Scatter(r.Local()[off:], src, a.Access, a.Stride)
}

// Read copies from the region into dst.
func (r *Region) Read(p *sim.Proc, off int64, dst []byte) {
	n := int64(len(dst))
	copy(dst, r.ReadView(p, off, n, n))
}

// ReadView bills a read of n bytes at off as Read does, from a working set
// of ws bytes, and hands the region's bytes back in place of copying them:
// the caller consumes them before it yields.
func (r *Region) ReadView(p *sim.Proc, off, n, ws int64) []byte {
	r.checkRange(off, n)
	r.charge(p, r.bus.mem.CopyCost(n, n, ws), n)
	return r.Local()[off : off+n]
}

// BlockWriter batches block-wise writes into the region, mirroring
// sci.BlockWriter for the intra-node case (where direct_pack_ff packs
// straight into the shared buffer and may even beat the contiguous copy for
// cache-friendly block sizes).
type BlockWriter struct {
	r          *Region
	p          *sim.Proc
	workingSet int64
	bytes      int64
	maxBlock   int64
	cost       time.Duration
	flushed    bool
}

// NewBlockWriter starts a batched block-write session. workingSet is the
// size of the traversed source structure.
func (r *Region) NewBlockWriter(p *sim.Proc, workingSet int64) *BlockWriter {
	return &BlockWriter{r: r, p: p, workingSet: workingSet}
}

// Write deposits one contiguous block at off.
func (w *BlockWriter) Write(off int64, src []byte) {
	n := int64(len(src))
	if n == 0 {
		return
	}
	w.r.checkRange(off, n)
	copy(w.r.Local()[off:], src)
	w.bytes += n
	if n > w.maxBlock {
		w.maxBlock = n
	}
	w.cost += w.r.bus.mem.BlockCopyCostFF(n, n, w.workingSet)
}

// Flush charges the accumulated cost, contending on the bus for large
// batches. In the cache-friendly regime (blocks fit L1, working set fits
// L2) the batch consumes proportionally less bus traffic — the
// cache-utilization effect behind the paper's observation that
// direct_pack_ff via shared memory can surpass the contiguous transfer.
func (w *BlockWriter) Flush() {
	if w.flushed {
		panic("shmem: BlockWriter flushed twice")
	}
	w.flushed = true
	bytes := w.bytes
	m := w.r.bus.mem
	if m.FFCacheBonus > 1 && w.maxBlock > 0 && w.maxBlock <= m.L1Size && w.workingSet <= m.L2Size {
		bytes = int64(float64(bytes) / m.FFCacheBonus)
	}
	w.r.charge(w.p, w.cost, bytes)
}
