package sci

import (
	"sync"
	"time"

	"scimpich/internal/bufpool"
	"scimpich/internal/fault"
	"scimpich/internal/flow"
	"scimpich/internal/memmodel"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/ring"
	"scimpich/internal/sim"
)

// Interconnect is a simulated SCI-connected cluster: a ringlet of nodes,
// each with a PCI-SCI adapter, sharing a flow network that resolves link
// contention in virtual time.
type Interconnect struct {
	E    sim.Host
	Net  *flow.Network
	Ring *ring.Topology
	Cfg  Config

	nodes []Node
	paths [][]flow.Hop // Node.path by from*len(nodes)+owner, each built on first use
	met   icMetrics
	// faults counts the injected faults by kind (fault.injected{kind}), each
	// one KFault: the plan's draws (applyPlan) and surfaceFault's.
	faults [fault.Kinds]int64
}

// Stats is one node's transfer counters, the one store of these counts: the
// node bumps them, Node.Snapshot returns them by value, and
// Interconnect.Publish adds them to a registry. Plain integers suffice
// because at most one process of a host runs at a time (sim.Host), and every
// reader is such a process or runs after the run has returned.
type Stats struct {
	BytesWritten  int64 `metric:"bytes.written"`
	BytesRead     int64 `metric:"bytes.read"`
	WriteOps      int64
	ReadOps       int64
	StoreBarriers int64
	// Retries counts the adapter's own retries: its retransmissions and
	// its bounded retries toward an unreachable owner or across a
	// disturbed link. A caller's retry of a failed access is the caller's
	// count (mpi, osc), not this one.
	Retries      int64
	DMATransfers int64

	// DMASGTransfers counts the subset of DMATransfers that were
	// scatter-gather descriptor-list submissions, DMASGBytes and DMASGDescs
	// the bytes and descriptors they carried.
	DMASGTransfers int64 `metric:"dma.sg.transfers"`
	DMASGBytes     int64 `metric:"dma.sg.bytes"`
	DMASGDescs     int64 `metric:"dma.sg.descs"`

	// TransferErrors counts injected CRC/sequence/link faults surfaced to
	// this node's operations as typed errors (as opposed to Retries,
	// which only cost latency).
	TransferErrors int64
	// CheckRetries counts transfer-check barrier retries (Mapping.Sync).
	CheckRetries int64
}

// icMetrics caches the interconnect's registry histograms so the PIO hot
// path never performs a map lookup. With metrics disabled every field is a
// nil collector, and every call below is an allocation-free no-op.
type icMetrics struct {
	writeStreamNS *obs.Histogram
	putNS         *obs.Histogram
	readNS        *obs.Histogram
	blockFlushNS  *obs.Histogram
	dmaNS         *obs.Histogram
	barrierNS     *obs.Histogram
	dmaSGNS       *obs.Histogram
}

func newICMetrics(r *obs.Registry) icMetrics {
	return icMetrics{
		writeStreamNS: r.Histogram("sci.pio.write_stream.ns"),
		putNS:         r.Histogram("sci.pio.put.ns"),
		readNS:        r.Histogram("sci.pio.read.ns"),
		blockFlushNS:  r.Histogram("sci.blockwrite.flush.ns"),
		dmaNS:         r.Histogram("sci.dma.ns"),
		barrierNS:     r.Histogram("sci.store_barrier.ns"),
		dmaSGNS:       r.Histogram("sci.dma.sg.ns"),
	}
}

// Publish adds the interconnect's counts to r, once, after the run: each
// sci.* counter is the sum over the nodes, flow.* the ring's network's, and
// fault.injected{kind} one counter per kind that occurred.
func (ic *Interconnect) Publish(r *obs.Registry) {
	for i := range ic.nodes {
		r.AddStats("sci", ic.nodes[i].stats)
	}
	ic.Net.Publish(r)
	for k, n := range ic.faults {
		if n > 0 {
			r.AddStats("fault", struct{ Injected int64 }{n}, "kind", fault.Kind(k).String())
		}
	}
}

// Faults returns a copy of the injected-fault counts, by kind.
func (ic *Interconnect) Faults() [fault.Kinds]int64 { return ic.faults }

// surfaceFault counts a fault the interconnect surfaces without a plan draw
// (an unreachable owner, a disturbance that outlasted the retries) and
// records it as one KFault on node n's ring, D being the retries spent.
func (n *Node) surfaceFault(at time.Duration, k fault.Kind, to, retries int) {
	n.ic.faults[k]++
	n.ic.Cfg.Flight.Actor(n.name).Record(at, flight.KFault, int64(k), int64(n.id), int64(to), int64(retries))
}

// Node is one cluster node with its adapter.
type Node struct {
	ic      *Interconnect
	id      int
	name    string // cached "node<i>" (avoids Sprintf on trace paths)
	egress  *flow.Link
	ingress *flow.Link

	// segs is the export table, indexed by segment id; a revoked segment's
	// slot is nil and its id is never handed out again.
	segs []*Segment

	// pendingWrites counts posted writes that have not yet arrived at
	// their targets; StoreBarrier waits on the one barrier future, which
	// the arrival that drains the count to zero completes and re-arms in
	// the same breath (the completion carries no value, and a barrier
	// entered from then on waits for the writes posted from then on). So
	// neither posting a write nor waiting for it allocates.
	pendingWrites int32
	// dead marks the node unreachable (see failure.go); it shares a word
	// with pendingWrites, so a Node keeps its allocation size class.
	dead    bool
	barrier sim.Future

	dma *dmaEngine // made by the node's first DMA transfer
	// bwFree holds the block writers whose session has been flushed.
	bwFree []*BlockWriter

	stats Stats
}

// Snapshot returns a copy of the node's transfer counters.
func (n *Node) Snapshot() Stats { return n.stats }

// countWrite and countRead record one data transfer issued as ops accesses.
func (n *Node) countWrite(ops, bytes int64) {
	n.stats.WriteOps += ops
	n.stats.BytesWritten += bytes
}

func (n *Node) countRead(ops, bytes int64) {
	n.stats.ReadOps += ops
	n.stats.BytesRead += bytes
}

// countDMA records one completed DMA transfer; descs is the length of its
// scatter-gather descriptor list, 0 for a contiguous request.
func (n *Node) countDMA(bytes int64, descs int) {
	n.stats.DMATransfers++
	n.stats.BytesWritten += bytes
	if descs > 0 {
		n.stats.DMASGTransfers++
		n.stats.DMASGBytes += bytes
		n.stats.DMASGDescs += int64(descs)
	}
}

// New builds the simulated cluster. The nodes are one slab, the adapters'
// egress and ingress links another (egress first), and the nodes' names are
// cut from one string.
func New(e sim.Host, cfg Config) *Interconnect {
	if cfg.Nodes < 1 {
		panic("sci: need at least one node")
	}
	if cfg.Mem == nil {
		panic("sci: config requires a memory model")
	}
	linkBW := ring.BandwidthForMHz(cfg.LinkMHz)
	ic := &Interconnect{
		E:    e,
		Net:  flow.NewNetworkOn(e),
		Ring: ring.New(cfg.Nodes, linkBW, flow.SCIRingCongestion{}),
		Cfg:  cfg,
	}
	ic.Net.SetMetrics(cfg.Metrics)
	ic.met = newICMetrics(cfg.Metrics)
	n := cfg.Nodes
	names := obs.NewNumbered("node", n)
	links := flow.NewLinks(2*n, PIOWritePeakBW, nil)
	ic.nodes = make([]Node, n)
	for i := range ic.nodes {
		ic.nodes[i] = Node{ic: ic, id: i, name: names.At(i), egress: &links[i], ingress: &links[n+i]}
	}
	ic.applyPlan()
	return ic
}

// applyPlan schedules the fault plan's node crashes/restorations and
// segment revocations as engine events, and counts every fault the plan
// draws and puts it on the flight recorder, so a post-mortem can separate
// injected causes from symptoms.
func (ic *Interconnect) applyPlan() {
	plan := ic.Cfg.Fault
	if plan == nil {
		return
	}
	flr := ic.Cfg.Flight.Actor("faultplan")
	plan.SetObserver(func(at time.Duration, k fault.Kind, from, to int) {
		ic.faults[k]++
		flr.Record(at, flight.KFault, int64(k), int64(from), int64(to), 0)
	})
	for _, ev := range plan.NodeSchedule() {
		ev := ev
		if ev.Node < 0 || ev.Node >= len(ic.nodes) {
			continue
		}
		flr := ic.Cfg.Flight.Actor(ic.nodes[ev.Node].name)
		ic.E.At(ev.At, func() {
			if ev.Up {
				ic.RestoreNode(ev.Node)
				flr.Record(ic.E.Now(), flight.KNodeUp, int64(ev.Node), 0, 0, 0)
			} else {
				ic.FailNode(ev.Node)
				flr.Record(ic.E.Now(), flight.KNodeDown, int64(ev.Node), 0, 0, 0)
			}
		})
	}
	for _, ev := range plan.SegmentSchedule() {
		ev := ev
		if ev.Owner < 0 || ev.Owner >= len(ic.nodes) {
			continue
		}
		flr := ic.Cfg.Flight.Actor(ic.nodes[ev.Owner].name)
		ic.E.At(ev.At, func() {
			ic.RevokeSegment(ev.Owner, ev.Seg)
			flr.Record(ic.E.Now(), flight.KSegRevoked, int64(ev.Owner), int64(ev.Seg), 0, 0)
		})
	}
}

// Plan returns the configured fault plan (possibly nil; all Plan query
// methods are nil-safe).
func (ic *Interconnect) Plan() *fault.Plan { return ic.Cfg.Fault }

// Node returns node i.
func (ic *Interconnect) Node(i int) *Node { return &ic.nodes[i] }

// Nodes returns the number of nodes.
func (ic *Interconnect) Nodes() int { return len(ic.nodes) }

// path returns the flow path for a transfer from node n to the segment
// owner: adapter egress, the ring segments to the target, adapter ingress,
// and — per the paper's Table 2 discussion — flow-control echo traffic on
// the return-path segments at a fraction of the data rate. The topology is
// fixed, so each path is built once.
func (n *Node) path(owner *Node) []flow.Hop {
	if n == owner {
		return nil
	}
	ic := n.ic
	if ic.paths == nil {
		ic.paths = make([][]flow.Hop, len(ic.nodes)*len(ic.nodes))
	}
	slot := &ic.paths[n.id*len(ic.nodes)+owner.id]
	if *slot != nil {
		return *slot
	}
	var hops []flow.Hop
	hops = append(hops, flow.Hop{Link: n.egress, Weight: 1})
	for _, l := range n.ic.Ring.Route(n.id, owner.id) {
		hops = append(hops, flow.Hop{Link: l, Weight: 1})
	}
	hops = append(hops, flow.Hop{Link: owner.ingress, Weight: 1})
	for _, l := range n.ic.Ring.Route(owner.id, n.id) {
		hops = append(hops, flow.Hop{Link: l, Weight: EchoFraction})
	}
	*slot = hops
	return hops
}

// ShiftBW is the rate of each of a step's concurrent transfers of bytes at
// srcCap across the ringlet, dists holding the downstream node distance of
// every transfer of the step (one entry per transfer, so a node whose ranks
// all send counts once per rank), and adapterFlows the most transfers either
// adapter of this one carries at once. An adapter streams at PIOWritePeakBW
// in all, shared evenly. Every transfer crosses the whole ringlet (path), d
// segments forward and n-d with its echoes at EchoFraction, so a segment
// carries every transfer, at a weight of d + (n-d)·EchoFraction per unit of
// rate summed over dists and spread over the n segments; the ringlet's
// congestion model prices that load as the flow network does. A transfer
// below flowThreshold never reaches the flow network: it moves at srcCap.
func (ic *Interconnect) ShiftBW(bytes int64, srcCap float64, adapterFlows int, dists ...int) float64 {
	n := len(ic.nodes)
	if bytes < flowThreshold {
		return srcCap
	}
	if adapterFlows > 1 {
		srcCap = min(srcCap, PIOWritePeakBW/float64(adapterFlows))
	}
	if len(dists) == 0 {
		return srcCap
	}
	weight := 0.0
	for _, d := range dists {
		weight += float64(d) + float64(float64(n-d)*EchoFraction)
	}
	weight /= float64(n)
	linkBW := ring.BandwidthForMHz(ic.Cfg.LinkMHz)
	achieved := linkBW * flow.SCIRingCongestion{}.AchievedFraction(srcCap*weight/linkBW, len(dists))
	return min(srcCap, achieved/weight)
}

// delivery is one posted write in flight: the captured source bytes (a
// pooled buffer, nil for cost-only flushes) and where to land them. The
// structs themselves are pooled; arrival recycles both struct and buffer.
type delivery struct {
	node   *Node
	seg    *Segment
	off    int64
	buf    *bufpool.Buf
	access int64 // 0: contiguous copy; >0: scatter access size
	stride int64
}

var deliveryPool = sync.Pool{New: func() any { return new(delivery) }}

// deliverArrive lands one posted write at its target. It is a top-level
// function scheduled through AfterCall so posting a write allocates
// neither a closure nor an event.
func deliverArrive(a any) {
	d := a.(*delivery)
	n := d.node
	if d.buf != nil {
		if d.access > 0 {
			memmodel.Scatter(d.seg.Local()[d.off:], d.buf.B, d.access, d.stride)
		} else {
			copy(d.seg.Local()[d.off:], d.buf.B)
		}
		d.buf.Put()
	}
	n.pendingWrites--
	if n.pendingWrites == 0 {
		n.barrier.Complete(nil)
		n.barrier.Rearm()
	}
	*d = delivery{}
	deliveryPool.Put(d)
}

// postDelivery registers a posted write on the node and schedules its
// arrival one wire latency out. buf ownership transfers to the delivery
// (recycled on arrival); a nil buf tracks a write whose bytes were already
// deposited (BlockWriter) and only needs barrier accounting.
func (n *Node) postDelivery(seg *Segment, off int64, buf *bufpool.Buf, access, stride int64) {
	d := deliveryPool.Get().(*delivery)
	d.node, d.seg, d.off, d.buf, d.access, d.stride = n, seg, off, buf, access, stride
	n.pendingWrites++
	n.ic.E.AfterCall(n.ic.Cfg.PIOWriteLatency, deliverArrive, d)
}

// StoreBarrier blocks until every posted write issued by this node has
// arrived at its target ("ensures complete delivery of all data written at
// a certain moment of time").
func (n *Node) StoreBarrier(p *sim.Proc) {
	n.stats.StoreBarriers++
	start := p.Now()
	p.Sleep(storeBarrierLatency)
	for n.pendingWrites > 0 {
		p.Await(&n.barrier)
	}
	n.ic.met.barrierNS.ObserveDuration(p.Now() - start)
}

// flowThreshold is the transfer size below which a transfer is charged
// directly (it cannot meaningfully contend) instead of going through the
// flow network.
const flowThreshold = 2048

// retransmit charges the retransmissions the fault plan draws for one
// transfer: latency only, the adapter clears them on its own.
func (n *Node) retransmit(p *sim.Proc) {
	if k := n.ic.Cfg.Fault.DrawRetries(); k > 0 {
		n.stats.Retries += int64(k)
		p.Sleep(time.Duration(k) * RetryLatency)
	}
}

// transferCost moves `bytes` from node n toward owner at the given source
// cap, blocking p for the virtual time of the move. Unreachable targets
// and link disturbances are reported as typed errors.
func (n *Node) transferCost(p *sim.Proc, owner *Node, bytes int64, srcCap float64) error {
	if bytes <= 0 {
		return nil
	}
	n.retransmit(p)
	if n == owner {
		// Local access: charged by the caller's memory model instead.
		return nil
	}
	if err := n.tryReachable(p, owner); err != nil {
		return err
	}
	if err := n.tryLinkClear(p, owner); err != nil {
		return err
	}
	if bytes < flowThreshold {
		p.Sleep(sim.RateDuration(bytes, srcCap))
		return nil
	}
	n.ic.Net.Transfer(p, n.path(owner), bytes, srcCap)
	return nil
}

// tryLinkClear retries through a scheduled link-disturbance window; if the
// disturbance outlasts the bounded retries it surfaces as a retryable
// LinkDisturbed fault.
func (n *Node) tryLinkClear(p *sim.Proc, owner *Node) error {
	plan := n.ic.Cfg.Fault
	if !plan.Disturbed(n.id, owner.id, p.Now()) {
		return nil
	}
	for i := 0; i < maxTransferRetries; i++ {
		n.stats.Retries++
		p.Sleep(RetryLatency)
		if !plan.Disturbed(n.id, owner.id, p.Now()) {
			return nil
		}
	}
	n.stats.TransferErrors++
	n.surfaceFault(p.Now(), fault.LinkDisturbed, owner.id, maxTransferRetries)
	return &fault.Error{Kind: fault.LinkDisturbed, From: n.id, To: owner.id, At: p.Now()}
}
