// Package nic models a conventional message-based network interface —
// Fast/Gigabit Ethernet or Myrinet class — as the second inter-node
// transport of the runtime. Unlike SCI there is no transparent remote
// memory: every remote access is a message over the wire, so
//
//   - "remote writes" cost the wire latency plus bandwidth and cannot be
//     gathered block-wise: direct_pack_ff degenerates to local packing
//     (exactly why the paper's comparator platforms show no consistent
//     non-contiguous optimization);
//   - "remote reads" cost a full round trip;
//   - nodes contend on their NIC (one egress and one ingress link each),
//     not on a shared ring.
//
// smi.FromNIC adapts a View to the smi.Mem interface, so the whole MPI
// runtime and the one-sided layer run unchanged on top.
package nic

import (
	"fmt"
	"time"

	"scimpich/internal/flow"
	"scimpich/internal/memmodel"
	"scimpich/internal/sim"
)

// Config describes the NIC and wire.
type Config struct {
	// Latency is the one-way message latency.
	Latency time.Duration
	// Bandwidth is the wire bandwidth in bytes/second.
	Bandwidth float64
	// PerMessageCPU is the host-side send/receive processing cost.
	PerMessageCPU time.Duration
	// Mem is the node memory model (local copies, packing).
	Mem *memmodel.Model
}

// FastEthernet returns the LAM-cluster class configuration (Table 1 X-f).
func FastEthernet() Config {
	return Config{
		Latency:       70 * time.Microsecond,
		Bandwidth:     11 * 1 << 20,
		PerMessageCPU: 8 * time.Microsecond,
		Mem:           memmodel.PentiumIII800(),
	}
}

// Myrinet1280 returns the SCore-cluster class configuration (Table 1 S-M).
func Myrinet1280() Config {
	return Config{
		Latency:       14 * time.Microsecond,
		Bandwidth:     110 * 1 << 20,
		PerMessageCPU: 3 * time.Microsecond,
		Mem:           memmodel.PentiumIII800(),
	}
}

// GigabitEthernet returns the Sun-cluster class configuration (Table 1 F-G).
func GigabitEthernet() Config {
	return Config{
		Latency:       50 * time.Microsecond,
		Bandwidth:     48 * 1 << 20,
		PerMessageCPU: 6 * time.Microsecond,
		Mem:           memmodel.PentiumIII800(),
	}
}

// Network is a cluster of nodes joined by a full-crossbar message fabric,
// with per-node NIC egress/ingress capacity.
type Network struct {
	E   sim.Host
	Net *flow.Network
	Cfg Config

	egress  []*flow.Link
	ingress []*flow.Link
	// pending deliveries per node, for Sync.
	pending []map[*sim.Future]struct{}
}

// New builds the fabric.
func New(e sim.Host, nodes int, cfg Config) *Network {
	if nodes < 1 {
		panic("nic: need at least one node")
	}
	if cfg.Mem == nil {
		panic("nic: config requires a memory model")
	}
	n := &Network{E: e, Net: flow.NewNetworkOn(e), Cfg: cfg}
	n.egress = make([]*flow.Link, nodes)
	n.ingress = make([]*flow.Link, nodes)
	n.pending = make([]map[*sim.Future]struct{}, nodes)
	for i := 0; i < nodes; i++ {
		n.egress[i] = flow.NewLink(fmt.Sprintf("nic%d-tx", i), cfg.Bandwidth, nil)
		n.ingress[i] = flow.NewLink(fmt.Sprintf("nic%d-rx", i), cfg.Bandwidth, nil)
		n.pending[i] = make(map[*sim.Future]struct{})
	}
	return n
}

// Nodes returns the cluster size.
func (n *Network) Nodes() int { return len(n.egress) }

// Buffer is memory physically at one node, remotely accessible by message.
// It is materialised on the first access (see memmodel.Backing).
type Buffer struct {
	net   *Network
	owner int
	mem   memmodel.Backing
}

// Alloc allocates a message-accessible buffer at the owner node.
func (n *Network) Alloc(owner int, size int64) *Buffer {
	b := new(Buffer)
	n.AllocInto(b, owner, size)
	return b
}

// AllocInto is Alloc into the caller's storage (an element of a slab).
func (n *Network) AllocInto(b *Buffer, owner int, size int64) {
	if size < 0 {
		panic("nic: negative buffer size")
	}
	*b = Buffer{net: n, owner: owner, mem: memmodel.Unbacked(size)}
}

// AllocBacked wraps existing memory as a message-accessible buffer, so one
// backing array can also be visible through the intra-node transport.
func (n *Network) AllocBacked(owner int, buf []byte) *Buffer {
	return &Buffer{net: n, owner: owner, mem: memmodel.BackedBy(buf)}
}

// Owner returns the owning node.
func (b *Buffer) Owner() int { return b.owner }

// Bytes returns the raw backing memory.
func (b *Buffer) Bytes() []byte { return b.mem.Bytes() }

// View returns node `from`'s costed access view of the buffer (see
// smi.FromNIC).
func (n *Network) View(from int, b *Buffer) *View {
	v := new(View)
	n.ViewInto(v, from, b)
	return v
}

// ViewInto is View into the caller's storage.
func (n *Network) ViewInto(v *View, from int, b *Buffer) {
	*v = View{net: n, from: from, b: b}
}

// View is one node's handle on a (possibly remote) Buffer.
type View struct {
	net  *Network
	from int
	b    *Buffer

	// The wire in each direction as a flow path, built by the first transfer
	// that takes it.
	toOwner, fromOwner []flow.Hop
}

// wire returns the flow path from node src to node dst, kept in *path.
func (v *View) wire(path *[]flow.Hop, src, dst int) []flow.Hop {
	if *path == nil {
		*path = flow.Path(v.net.egress[src], v.net.ingress[dst])
	}
	return *path
}

// Remote reports whether accesses cross the wire.
func (v *View) Remote() bool { return v.from != v.b.owner }

// Size returns the buffer size.
func (v *View) Size() int64 { return v.b.mem.Size() }

// Bytes returns the raw backing memory (owner-side use).
func (v *View) Bytes() []byte { return v.b.Bytes() }

func (v *View) checkRange(off, n int64) {
	if off < 0 || n < 0 || off+n > v.Size() {
		panic(fmt.Sprintf("nic: access [%d, %d) outside buffer of %d bytes", off, off+n, v.Size()))
	}
}

// send moves bytes over the wire and applies them at arrival; the caller
// is blocked for the host costs and wire occupancy.
func (v *View) send(p *sim.Proc, apply func()) func(bytes int64) {
	return func(bytes int64) {
		cfg := &v.net.Cfg
		p.Sleep(cfg.PerMessageCPU)
		if bytes > 0 {
			v.net.Net.Transfer(p, v.wire(&v.toOwner, v.from, v.b.owner), bytes, cfg.Bandwidth)
		}
		fut := sim.NewFuture()
		v.net.pending[v.from][fut] = struct{}{}
		from := v.from
		v.net.E.After(cfg.Latency, func() {
			apply()
			delete(v.net.pending[from], fut)
			fut.Complete(nil)
		})
	}
}

// WriteStream sends src contiguously to offset off.
func (v *View) WriteStream(p *sim.Proc, off int64, src []byte, srcWorkingSet int64) {
	nn := int64(len(src))
	v.checkRange(off, nn)
	if !v.Remote() {
		p.Sleep(v.net.Cfg.Mem.CopyCost(nn, nn, maxi64(srcWorkingSet, nn)))
		copy(v.b.Bytes()[off:], src)
		return
	}
	data := append([]byte(nil), src...)
	buf, o := v.b, off
	v.send(p, func() { copy(buf.Bytes()[o:], data) })(nn)
}

// WriteStrided scatters accesses; over a message fabric each strided
// access would be its own message, so the data is sent as one message and
// scattered at the receiver (cost: wire + receiver-side scatter copy).
func (v *View) WriteStrided(p *sim.Proc, off int64, src []byte, accessSize, stride int64) {
	nn := int64(len(src))
	if nn == 0 {
		return
	}
	a := memmodel.StridedAccess(nn, accessSize, stride)
	v.checkRange(off, a.Span)
	// Local scatter, or the receiver-side scatter charged to the op.
	p.Sleep(v.net.Cfg.Mem.CopyCost(nn, a.Access, a.Span))
	if !v.Remote() {
		memmodel.Scatter(v.b.Bytes()[off:], src, a.Access, a.Stride)
		return
	}
	data := append([]byte(nil), src...)
	buf, o := v.b, off
	v.send(p, func() { memmodel.Scatter(buf.Bytes()[o:], data, a.Access, a.Stride) })(nn)
}

// Read fetches bytes: a request/response round trip.
func (v *View) Read(p *sim.Proc, off int64, dst []byte) {
	nn := int64(len(dst))
	v.checkRange(off, nn)
	if !v.Remote() {
		p.Sleep(v.net.Cfg.Mem.CopyCost(nn, nn, nn))
		copy(dst, v.b.Bytes()[off:off+nn])
		return
	}
	cfg := &v.net.Cfg
	p.Sleep(2*cfg.Latency + 2*cfg.PerMessageCPU)
	if nn > 0 {
		v.net.Net.Transfer(p, v.wire(&v.fromOwner, v.b.owner, v.from), nn, cfg.Bandwidth)
	}
	copy(dst, v.b.Bytes()[off:off+nn])
}

// BlockWriter stages blocks locally and ships them as one message on
// Flush: the NIC cannot gather remote stores, so direct_pack_ff brings no
// wire advantage here (matching the paper's comparator observations).
type BlockWriter struct {
	v       *View
	p       *sim.Proc
	ws      int64
	lowest  int64
	staged  []stagedBlock
	bytes   int64
	cost    time.Duration
	flushed bool
}

type stagedBlock struct {
	off  int64
	data []byte
}

// NewBlockWriter starts a batched session.
func (v *View) NewBlockWriter(p *sim.Proc, workingSet int64) *BlockWriter {
	return &BlockWriter{v: v, p: p, ws: workingSet, lowest: -1}
}

// Write stages one block.
func (w *BlockWriter) Write(off int64, src []byte) {
	nn := int64(len(src))
	if nn == 0 {
		return
	}
	w.v.checkRange(off, nn)
	w.staged = append(w.staged, stagedBlock{off: off, data: append([]byte(nil), src...)})
	w.bytes += nn
	w.cost += w.v.net.Cfg.Mem.CopyCost(nn, nn, w.ws) // local pack pass
}

// Flush pays the local pack plus one wire message and applies the blocks
// at arrival.
func (w *BlockWriter) Flush() {
	if w.flushed {
		panic("nic: BlockWriter flushed twice")
	}
	w.flushed = true
	if w.bytes == 0 {
		return
	}
	w.p.Sleep(w.cost)
	if !w.v.Remote() {
		applyBlocks(w.v.b, w.staged)
		return
	}
	staged := w.staged
	buf := w.v.b
	w.v.send(w.p, func() { applyBlocks(buf, staged) })(w.bytes)
}

// applyBlocks lands staged blocks in the buffer.
func applyBlocks(b *Buffer, staged []stagedBlock) {
	dst := b.Bytes()
	for _, blk := range staged {
		copy(dst[blk.off:], blk.data)
	}
}

// Sync waits for all of this node's in-flight messages to arrive.
func (v *View) Sync(p *sim.Proc) {
	pend := v.net.pending[v.from]
	for len(pend) > 0 {
		var f *sim.Future
		for fut := range pend {
			f = fut
			break
		}
		p.Await(f)
	}
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
