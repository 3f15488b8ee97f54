// Package mpi implements the message-passing runtime of the reproduction:
// an MPI subset in the architecture of SCI-MPICH. Ranks are simulated
// processes placed on the nodes of an SCI ringlet (several per node for SMP
// nodes); point-to-point communication uses the short / eager / rendezvous
// protocols over transparently mapped remote memory (or intra-node shared
// memory, chosen per pair), derived datatypes are transmitted either with
// the generic pack-and-send baseline or with direct_pack_ff straight into
// the remote buffer, and collectives are built on top.
package mpi

import (
	"fmt"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/flow"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/pack"
	"scimpich/internal/sci"
	"scimpich/internal/shmem"
	"scimpich/internal/sim"
	"scimpich/internal/smi"
)

// ProtocolConfig holds the device protocol parameters.
type ProtocolConfig struct {
	// RendezvousChunk is the bytes moved per handshake cycle. The paper
	// requires it below the L2 size to avoid cache thrashing with
	// direct_pack_ff. It must be a positive multiple of 8, so that no
	// chunk splits an element: a world with another is refused.
	RendezvousChunk int64
	// UseFF selects direct_pack_ff for non-contiguous datatypes; false
	// forces the generic pack-and-send baseline everywhere.
	UseFF bool
	// Path selects the deposit engine of rendezvous chunks on remote-memory
	// transports: the cost-model ranking (the default), the legacy static
	// thresholds, or a forced path (see PathPolicy). Contiguous chunks take
	// the adapter's DMA engine only under PathDMA (the paper's §6 outlook:
	// "non-contiguous data transfers with DMA-based interconnects"), PIO
	// otherwise.
	Path PathPolicy

	// Coll selects the collective algorithm policy: the cost-model
	// chooser (CollAuto, the default), the legacy point-to-point
	// algorithms (CollP2P), or one forced algorithm family for ablation
	// runs (see CollAlg).
	Coll CollAlg
	// CollSlot is the per-source deposit slot in each rank's one-sided
	// collective window (each rank exposes size*CollSlot bytes, built on
	// first use). 0 disables the window and the one-sided collective
	// algorithms.
	CollSlot int64
	// CollTimeout bounds each internal wait inside a collective (Barrier
	// and friends): an expired wait surfaces as sci.ErrConnectionLost when
	// the awaited peer's node is down, or a fault.Timeout error otherwise.
	// 0 waits forever; AutoTimeout scales the bound with the world; a world
	// with another negative value is refused.
	CollTimeout time.Duration

	// RendezvousTimeout bounds each wait for rendezvous control traffic
	// (CTS, chunk acks). 0 waits forever (the legacy behaviour); with a
	// timeout, an expired wait surfaces as sci.ErrConnectionLost when the
	// peer's node is down, or a fault.Timeout error otherwise, instead of
	// hanging the simulation. AutoTimeout scales the bound with the world;
	// a world with another negative value is refused.
	RendezvousTimeout time.Duration
}

// DefaultProtocol returns the SCI-MPICH-like protocol parameters.
func DefaultProtocol() ProtocolConfig {
	return ProtocolConfig{
		RendezvousChunk: 64 << 10, // a quarter of the P-III L2: chunk + scattered span stay cache-resident
		UseFF:           true,

		Path: PathAdaptive,

		Coll:     CollAuto,
		CollSlot: 256 << 10, // two double-buffered 128 KiB halves per pair

		RendezvousTimeout: 0, // wait forever unless a run opts into watchdogs
	}
}

// The device's fixed protocol thresholds, software costs and port layout.
const (
	// shortMax is the largest payload carried inline in a control packet.
	shortMax = 128
	// eagerMax is the largest message sent through preallocated eager
	// slots (eagerSlots per pair); larger messages use the rendezvous
	// protocol.
	eagerMax = 16 << 10
	// eagerSlots is the number of eager buffers per sender/receiver pair.
	eagerSlots = 8
	// oscBuf is the per-pair staging area for emulated one-sided transfers
	// into private windows.
	oscBuf = 128 << 10
	// handlerLatency is the software cost of dispatching one control
	// envelope in the device.
	handlerLatency = 500 * time.Nanosecond
	// callOverhead is the software cost of entering an MPI call.
	callOverhead = 250 * time.Nanosecond
	// sendRetryMax bounds the retransmission attempts of a failed data
	// deposit (eager slot write, rendezvous chunk) before the typed error
	// is surfaced; sendBackoff is the initial backoff, doubled per retry.
	sendRetryMax = 6
	sendBackoff  = 20 * time.Microsecond
)

// A pair's eager credits live inside its sendPort: the build fails if they
// outgrow the ring a sim.Credits holds.
var _ [sim.MaxCredits - eagerSlots]struct{}

// Config describes a simulated cluster run.
type Config struct {
	// Nodes is the number of cluster nodes; ProcsPerNode ranks run on
	// each. Rank r lives on node r / ProcsPerNode.
	Nodes        int
	ProcsPerNode int
	// SCI configures the interconnect (ignored for a single node). Its
	// Nodes, Metrics and Flight are not read: the interconnect spans this
	// Config's Nodes and reports to its Metrics and Flight.
	SCI sci.Config
	// Shm configures the intra-node memory system.
	Shm shmem.Config
	// Protocol configures the device.
	Protocol ProtocolConfig
	// Tracer, when non-nil, records the nested spans of sends, receives,
	// packs, epochs and collectives (see internal/obs). Point events are
	// the flight recorder's (Flight).
	Tracer *obs.Trace
	// Metrics, when non-nil, receives the runtime's counters and latency
	// histograms (mpi.send.*{path=...}, mpi.pack.*) and, after Run, the
	// counts of every layer's stats structs, added by World.PublishMetrics.
	// The SCI layer records into it too.
	Metrics *obs.Registry
	// Flight, when non-nil, is the always-on flight recorder: every rank
	// records typed protocol events (send/recv matches, rendezvous
	// progress, shrink agreements) into its per-actor ring, and the first
	// typed error an operation returns snapshots the whole window to a
	// JSON dump (see internal/obs/flight and cmd/postmortem).
	// The SCI layer records into it too.
	Flight *flight.Recorder
}

// DefaultConfig returns a cluster of nodes dual-SMP nodes matching the
// paper's testbed.
func DefaultConfig(nodes, procsPerNode int) Config {
	return Config{
		Nodes:        nodes,
		ProcsPerNode: procsPerNode,
		SCI:          sci.DefaultConfig(nodes),
		Shm:          shmem.DefaultConfig(),
		Protocol:     DefaultProtocol(),
	}
}

// World is the runtime state of a cluster run. The world lives on locale 0
// of a sim.Fabric: all its processes, device daemons, flow networks and
// services are scheduled on that locale's heap.
type World struct {
	cfg    Config
	fabric sim.Fabric
	host   sim.Host // the hosting locale's scheduling surface
	ic     *sci.Interconnect
	buses  []shmem.Bus
	ranks  []*rank
	main   func(c *Comm) // what every rank runs (see Spawn)

	size       int
	identity   []int // world ranks 0..size-1, for groupRanks
	exchange   map[string][]any
	seq        map[int][]int // per context: each rank's Shrink count (callSeq)
	ctxCounter int

	// Failure-detector and revocation state (see elastic.go), indexed by
	// world rank. suspects is the sticky suspicion set; revoked marks ranks
	// a shrink agreement excluded — every transport drops their traffic.
	suspects   []bool
	revoked    []bool
	shrinkRecs map[string]*shrinkRec

	// Collective algorithm engine state: the lazily built one-sided
	// windows (one SharedSeg per owning rank, a per-source view matrix).
	// It is mutated from rank processes without locking: the simulation is
	// single-threaded.
	collWins  []*SharedSeg
	collViews [][]smi.Mem
	// eval is the cost-model evaluator's scratch (collEval), built at the
	// first call the chooser prices.
	eval *collEval

	// envFree is the envelope free list (see envelope). rdvSendFree and
	// rdvRecvFree hold the scratch records of rendezvous transfers that
	// ended cleanly (see rdvSend), reqFree the Requests of collective-
	// internal receives (see irecvColl), oscReplyFree the reply channels of
	// one-sided calls whose reply was read (see OSCCallTimeout).
	envFree      []*envelope
	rdvSendFree  []*rdvSend
	rdvRecvFree  []*rdvRecv
	reqFree      []*Request
	oscReplyFree []*sim.Chan

	met   worldMetrics
	stats WorldStats
	// packFF/packGeneric accumulate the block structure of every pack and
	// unpack operation charged on this world, per engine (see PackStats).
	packFF      pack.Cumulative
	packGeneric pack.Cumulative

	// publishers add the layers' counts at PublishMetrics (see OnPublish);
	// published makes a second PublishMetrics a no-op.
	publishers []func(*obs.Registry)
	published  bool
}

// PackStats returns the cumulative totals of all pack/unpack operations
// performed on the world, split by engine (direct_pack_ff versus the
// generic recursive baseline).
func (w *World) PackStats() (ff, generic pack.Cumulative) {
	return w.packFF, w.packGeneric
}

// countPack folds one pack/unpack operation into the per-engine totals.
func (w *World) countPack(st pack.Stats, ff bool) {
	if ff {
		w.packFF.Add(st)
	} else {
		w.packGeneric.Add(st)
	}
}

// worldMetrics caches the runtime's registry histograms so the send hot
// path never performs a map lookup. With metrics disabled every field is a
// nil histogram and every observation below is an allocation-free no-op.
type worldMetrics struct {
	sendNS [len(sendPaths)]*obs.Histogram // by protocol, as WorldStats.Sends

	packFFNS      *obs.Histogram
	packGenericNS *obs.Histogram
	packSGNS      *obs.Histogram
	transferDMANS *obs.Histogram

	collNS [collKindCount]*obs.Histogram // whole collective calls
}

// sendPaths names the protocols of a send to another rank, in the order of
// WorldStats.Sends.
var sendPaths = [...]string{"short", "eager", "rdv"}

func newWorldMetrics(r *obs.Registry) worldMetrics {
	if r == nil {
		return worldMetrics{} // obs.Name would still build every name below
	}
	m := worldMetrics{
		packFFNS:      r.Histogram(obs.Name("mpi.pack.ns", "engine", "direct_pack_ff")),
		packGenericNS: r.Histogram(obs.Name("mpi.pack.ns", "engine", "generic")),
		packSGNS:      r.Histogram(obs.Name("mpi.pack.ns", "engine", "dma_sg")),
		transferDMANS: r.Histogram(obs.Name("mpi.transfer.ns", "path", "dma")),
	}
	for i, path := range sendPaths {
		m.sendNS[i] = r.Histogram(obs.Name("mpi.send.ns", "path", path))
	}
	for k := collKind(0); k < collKindCount; k++ {
		m.collNS[k] = r.Histogram(obs.Name("mpi.coll.ns", "coll", k.String()))
	}
	return m
}

// WorldStats is a world's decision and volume counts, the one store of the
// mpi.* counters: the ranks bump them, World.WorldStats returns them by value
// and PublishMetrics adds them to a registry, zeros included, each array
// element labelled as its tag lists (see obs.Registry.AddStats).
type WorldStats struct {
	// Sends and SendBytes count the sends to other ranks by protocol.
	Sends     [len(sendPaths)]int64 `metric:"sends{path=short|eager|rdv}"`
	SendBytes [len(sendPaths)]int64 `metric:"send.bytes{path=short|eager|rdv}"`

	// The rendezvous bytes each deposit engine packed (staged counts as
	// ff), and the contiguous bytes the DMA engine moved.
	PackFFBytes      int64 `metric:"pack.bytes{engine=direct_pack_ff}"`
	PackGenericBytes int64 `metric:"pack.bytes{engine=generic}"`
	PackSGBytes      int64 `metric:"pack.bytes{engine=dma_sg}"`
	DMABytes         int64 `metric:"transfer.bytes{path=dma}"`

	// PathChosen counts the rendezvous chunks by the code of the path that
	// deposited them: a depositPath, or a flight.Path* code beyond those.
	PathChosen [flight.PathDMACont + 1]int64 `metric:"path.chosen{path=pio-ff|staged|dma-sg|generic|pio-stream|dma}"`

	OSCPolled    int64 `metric:"osc.calls{delivery=poll}"`
	OSCInterrupt int64 `metric:"osc.calls{delivery=interrupt}"`

	CollChosen [collKindCount][collAlgCount]int64 `metric:"coll.alg.chosen{coll=barrier|bcast|reduce|allreduce|gather|allgather|alltoall,alg=auto|p2p|recdbl|ring|onesided}"`
}

// rank is one MPI process.
type rank struct {
	w          *World
	id         int
	node       int
	actor      string       // cached "rank<i>" (avoids Sprintf on the send hot path)
	fl         *flight.Ring // cached flight ring for the actor (nil without a recorder)
	dev        *device
	reqCounter int64

	// ports[i] is the memory this rank exposes to sender i.
	ports []port
	// out[i] is this rank's sender-side state toward receiver i. Both are
	// indexed by world rank; the rank's own entry stays zero.
	out []sendPort
}

// port is the receive-side memory a rank exposes to one particular sender:
// eager slots plus a double-buffered rendezvous area.
type port struct {
	mem   smi.Mem
	segID int // SCI segment id for remote senders (-1 otherwise)
}

// sendPort is the sender-side view of a receiver's port.
type sendPort struct {
	mem     smi.Mem
	credits sim.Credits // free eager slots
	rdvLock sim.Mutex   // serializes rendezvous transfers on this pair
	oscLock sim.Mutex   // serializes one-sided staging on this pair
	msgSeq  int64       // sequence stamp for message-bearing envelopes
}

func (w *World) protocol() *ProtocolConfig { return &w.cfg.Protocol }

// portSize returns the byte size of one pair port.
func (w *World) portSize() int64 {
	return eagerSlots*eagerMax + 2*w.protocol().RendezvousChunk + oscBuf
}

func (w *World) eagerOff(slot int) int64 { return int64(slot) * eagerMax }

func (w *World) rdvOff(slot int) int64 {
	return eagerSlots*eagerMax + int64(slot%2)*w.protocol().RendezvousChunk
}

// oscOff returns the offset of the one-sided staging area in a pair port.
func (w *World) oscOff() int64 {
	return eagerSlots*eagerMax + 2*w.protocol().RendezvousChunk
}

// newWorld wires the cluster — interconnect, per-node buses, ranks, ports —
// confined to locale 0 of the fabric. Each kind of record is one slab for
// the whole world — the ranks, their devices, each kind of per-pair record,
// the names of each kind — and rank r's share of a per-rank kind is row r of
// its slab (see row), so a world costs O(kinds) objects, not O(ranks).
func newWorld(f sim.Fabric, cfg Config) *World {
	if cfg.Nodes < 1 || cfg.ProcsPerNode < 1 {
		panic("mpi: need at least one node and one proc per node")
	}
	if c := cfg.Protocol.RendezvousChunk; c < 8 || c%8 != 0 {
		panic(fmt.Sprintf("mpi: Protocol.RendezvousChunk %d is not a positive multiple of 8", c))
	}
	CheckTimeout("Protocol.CollTimeout", cfg.Protocol.CollTimeout)
	CheckTimeout("Protocol.RendezvousTimeout", cfg.Protocol.RendezvousTimeout)
	n := cfg.Nodes * cfg.ProcsPerNode
	w := &World{cfg: cfg, fabric: f, host: f.Locale(0), size: n}
	e := w.host
	w.met = newWorldMetrics(cfg.Metrics)
	flags := make([]bool, 2*n) // suspects, then revoked
	w.suspects, w.revoked = flags[:n:n], flags[n:]
	if cfg.Nodes > 1 {
		w.cfg.SCI.Nodes, w.cfg.SCI.Metrics, w.cfg.SCI.Flight = cfg.Nodes, cfg.Metrics, cfg.Flight
		w.ic = sci.New(e, w.cfg.SCI)
	}
	// All intra-node buses share one flow network so that, on request,
	// cross-transport interactions stay in one simulation.
	net := flow.NewNetworkOn(e)
	net.SetMetrics(cfg.Metrics)
	w.buses = shmem.NewBuses(e, net, "node", cfg.Nodes, cfg.Shm)
	// The free lists of the records every rank takes one of at once (a
	// message's envelope, a receive's Request) hold the world's first block
	// of them (see sim.TakeFree).
	w.envFree = make([]*envelope, 0, n)
	w.reqFree = make([]*Request, 0, n)

	ranks, devs := make([]rank, n), make([]device, n)
	w.ranks = make([]*rank, n)
	actors, devActors := obs.NewNumbered("rank", n, ""), obs.NewNumbered("dev", n, "")
	lastSeq := make([]int64, n*n)
	posted := make([]*Request, n) // every device's room for its first posted receive
	topo := cfg.Flight.Actor("topology")
	for r := range ranks {
		rk := &ranks[r]
		*rk = rank{w: w, id: r, node: r / cfg.ProcsPerNode, actor: actors.At(r), dev: &devs[r]}
		rk.fl = cfg.Flight.Actor(rk.actor)
		// The topology meta ring maps ranks to nodes for the post-mortem
		// analyzer; a dedicated ring so long runs cannot evict it.
		topo.Record(0, flight.KRankNode, int64(r), int64(rk.node), 0, 0)
		devs[r] = device{rk: rk, actor: devActors.At(r), lastSeq: row(lastSeq, r, n), posted: row(posted, r, 1)[:0]}
		w.ranks[r] = rk
	}

	local, remote := cfg.ProcsPerNode-1, n-cfg.ProcsPerNode // senders per receiver
	ports, regions := make([]port, n*n), make([]shmem.Region, n*local)
	segs, views := make([]sci.Segment, n*remote), make([]sci.Mapping, n*remote)
	if w.ic != nil {
		w.ic.ReserveSegments(cfg.ProcsPerNode * remote)
	}
	for r, rk := range w.ranks {
		rk.ports = row(ports, r, n)
		rk.buildPorts(row(regions, r, local), row(segs, r, remote), row(views, r, remote))
	}
	out, imports := make([]sendPort, n*n), make([]sci.Mapping, n*remote)
	for r, rk := range w.ranks {
		rk.out = row(out, r, n)
		rk.buildSendPorts(row(imports, r, remote))
	}
	return w
}

// row returns row r of a slab of rows of n records, capped at its end so
// that an append to it cannot run into the next row.
func row[T any](slab []T, r, n int) []T {
	return slab[r*n : (r+1)*n : (r+1)*n]
}

// buildPorts sets up the receive-side memory this rank exposes to every
// sender: intra-node senders get a shm region, remote senders an SCI
// segment, in this rank's rows of the world's slabs (regions, the segments
// and the owner's own views of them). The node hands the segments of one
// rank consecutive ids in source order, which fault plans address from
// t = 0 (see docs/FAULTS.md).
func (rk *rank) buildPorts(regions []shmem.Region, segs []sci.Segment, views []sci.Mapping) {
	w := rk.w
	if w.ic != nil {
		w.ic.Node(rk.node).ExportSlab(segs, w.portSize())
	}
	nl, nr := 0, 0 // intra-node and remote senders wired so far
	for src := 0; src < w.size; src++ {
		if src == rk.id {
			continue
		}
		pt := &rk.ports[src]
		pt.segID = -1
		if w.ranks[src].node == rk.node {
			w.buses[rk.node].AllocInto(&regions[nl], w.portSize())
			pt.mem = smi.FromShm(&regions[nl])
			nl++
			continue
		}
		// The owning rank's local view; the sender imports the segment in
		// buildSendPorts.
		pt.segID = segs[nr].ID()
		pt.mem = smi.FromSCI(w.importInto(&views[nr], rk.node, rk.node, pt.segID))
		nr++
	}
}

// importInto maps segment segID of node owner into node from, in the
// caller's storage; like sci.MustImport, for wiring that cannot fail.
func (w *World) importInto(m *sci.Mapping, from, owner, segID int) *sci.Mapping {
	if err := w.ic.Node(from).ImportInto(m, owner, segID); err != nil {
		panic(err)
	}
	return m
}

// buildSendPorts sets up this rank's sender-side view of each peer's port:
// every pair's credits, and the imports of remote ports in this rank's row
// of the world's slab.
func (rk *rank) buildSendPorts(imports []sci.Mapping) {
	w := rk.w
	nr := 0 // remote receivers wired so far
	for dst := 0; dst < w.size; dst++ {
		if dst == rk.id {
			continue
		}
		peer := w.ranks[dst]
		out := &rk.out[dst]
		if peer.node == rk.node {
			out.mem = peer.ports[rk.id].mem // same shm region
		} else {
			out.mem = smi.FromSCI(w.importInto(&imports[nr], rk.node, peer.node, peer.ports[rk.id].segID))
			nr++
		}
		out.credits.Init(eagerSlots)
	}
}

// ring delivers an envelope from rank src to rank dst's device,
// charging the transport-appropriate control-packet cost. interrupt selects
// the remote-interrupt path (for targets that are not polling). The packet
// is passed by value and takes an envelope from the free list only once it
// is certain to arrive.
func (w *World) ring(p *sim.Proc, src, dst int, e envelope, interrupt bool) {
	if src == dst {
		w.ranks[dst].dev.post(w.newEnvelope(e))
		return
	}
	if w.revoked[src] || w.revoked[dst] {
		// A revoked endpoint is permanently fenced off, on every transport:
		// even a restored node's stale traffic (old sequence numbers, late
		// rendezvous chunks) must never reach a world that shrank past it.
		w.ranks[src].fl.Record(p.Now(), flight.KPacketDrop, int64(e.kind), int64(dst), flight.DropRevoked, 0)
		return
	}
	from, to := w.ranks[src], w.ranks[dst]
	e.to = to.dev
	if from.node == to.node {
		p.Sleep(shmIssue)
		w.host.AfterCall(shmem.SignalLatency, deliverEnvelope, w.newEnvelope(e))
		return
	}
	p.Sleep(sciIssue)
	if !w.ic.Alive(from.node) || !w.ic.Alive(to.node) {
		// A crashed endpoint black-holes the control packet: the sender has
		// paid the issue cost but nothing arrives. Recovery layers detect
		// this via watchdog timeouts, not via a magic error here.
		from.fl.Record(p.Now(), flight.KPacketDrop, int64(e.kind), int64(dst), flight.DropNodeDown, 0)
		return
	}
	if dedupable(e.kind) {
		out := &from.out[dst]
		out.msgSeq++
		e.seq = out.msgSeq
	}
	delay := w.cfg.SCI.PIOWriteLatency
	if interrupt {
		delay += sci.InterruptLatency
	}
	w.host.AfterCall(delay, deliverEnvelope, w.newEnvelope(e))
	if w.plan().DrawDuplicate() && dedupable(e.kind) {
		// Injected retransmission: the same packet arrives a second time one
		// retry latency later. The receiving device must stay exactly-once.
		// The duplicate is an envelope of its own, because the device frees
		// each one it has read; it carries no payload, because the one
		// pooled buffer belongs to the original and a duplicate is dropped
		// before its payload would be read.
		from.fl.Record(p.Now(), flight.KDupInject, int64(e.kind), int64(dst), e.seq, 0)
		e.payload, e.payloadBuf = nil, nil
		w.host.AfterCall(delay+sci.RetryLatency, deliverEnvelope, w.newEnvelope(e))
	}
}

// deliverEnvelope is the arrival event of a control packet.
func deliverEnvelope(arg any) {
	env := arg.(*envelope)
	env.live()
	env.to.post(env)
}

// dedupable reports whether an envelope kind carries a message the
// receiving device can recognize as a duplicate (sequence-numbered kinds
// plus rendezvous data chunks, deduped by chunk index). Control replies
// (CTS/acks) are never duplicated by the injector: the sender counts them.
func dedupable(k envKind) bool {
	switch k {
	case envShort, envEager, envRdvReq, envRdvData:
		return true
	}
	return false
}

// plan returns the SCI fault plan (nil without one; Plan queries are
// nil-safe).
func (w *World) plan() *fault.Plan {
	if w.ic == nil {
		return nil
	}
	return w.ic.Plan()
}

// envelopeWireBytes is the size of a control packet on the wire.
const envelopeWireBytes = 64

// shmIssue is the cost of storing a control packet's flag into a node-local
// peer's shared memory, sciIssue of writing the packet across the ringlet.
const shmIssue = 60 * time.Nanosecond

var sciIssue = sci.WriteIssueOverhead + sim.RateDuration(envelopeWireBytes, sci.PIOWritePeakBW)
