package mpi

// The torus collective runtime: the paper's §6 scaling outlook (8 nodes per
// ringlet, 3-D torus, 512 nodes) running the runtime's ring allreduce as a
// fabric-native workload. Where the full protocol world is confined to one
// locale (its ranks share ports and windows at zero delay), the torus
// runtime distributes one node actor per torus node across the locales of a
// sim.Fabric, partitioned by contiguous z-plane blocks: all cross-locale
// interaction is a Locale.Send carrying the route's propagation latency —
// at least one segment latency, the engine's conservative lookahead.
//
// The allreduce schedule is exactly the collective engine's: every step
// forwards the block ringSendBlock(me, step, size) picks, the same rotation
// allreduceRing drives through the point-to-point and one-sided protocols.
// The reduction operator is uint64 wrapping addition — exactly associative
// and commutative — so chunk digests, checksums, flight dumps and
// completion times are bit-identical across engines and shard counts.
//
// A node holds the chunk it carries, not the vector: no step reads more than
// the chunk received on the step before, which the node forwards next (plus
// its own contribution during reduce-scatter). Each chunk a node holds fully
// reduced — the last reduce-scatter step's and every allgather step's — is
// checked on landing against the machine's expected digest and folded into
// the node's running sum, so a node's state is O(1) and the machine's O(n).
//
// Shard locality of the flow solve is structural: with ring-neighbor-only
// traffic under dimension-ordered routing, the route of node i to i+1 stays
// inside i's z-plane except for the final z-hop at a plane boundary, and no
// two routes share a segment. Every link is touched by exactly one locale's
// network, flows never span locales, and each flow is its own max-min
// component — per-locale solves produce bit-identical rates to the
// monolithic oracle network.

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"scimpich/internal/flow"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/ring"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
	"scimpich/internal/torus"
)

// TorusConfig parameterizes a torus machine run.
type TorusConfig struct {
	DX, DY, DZ int // torus dimensions; nodes = DX*DY*DZ
	Shards     int // z-plane blocks (fabric locales); must divide DZ

	ChunkBytes     int64         // bytes per allreduce chunk transfer
	SegmentLatency time.Duration // per-segment propagation delay; the shards' lookahead

	SampleEvery int           // flight sample period in steps (<=0: 64)
	Registry    *obs.Registry // optional shared metrics registry
}

// DefaultTorusConfig returns a machine calibrated like the paper's testbed
// (166 MHz ringlets, Table 2 sustained put bandwidth, 70 ns B-Link segment
// delay) with the given partitioning.
func DefaultTorusConfig(dx, dy, dz, shards int) TorusConfig {
	return TorusConfig{
		DX: dx, DY: dy, DZ: dz, Shards: shards,
		ChunkBytes:     64 << 10,
		SegmentLatency: 70 * time.Nanosecond,
		SampleEvery:    64,
	}
}

// TorusResult summarizes a completed run.
type TorusResult struct {
	Nodes    int
	Shards   int
	End      time.Duration // final virtual time
	Events   uint64        // events executed by the engine
	Windows  uint64        // barrier rounds (0 on the sequential engine)
	Checksum uint64        // wrapping sum of the reduced vector
	Steps    int           // allreduce steps per node
}

// torusDelivery is one chunk handed to the successor node. Deliveries are
// recycled: the sender fills its spare one when its step begins and the
// receiver, once it has applied the chunk, keeps it as its spare — every node
// sends and receives one per step, so each holds one between steps and a
// delivery is only ever touched on the locale of the node holding it.
type torusDelivery struct {
	to    *torusNode
	step  int
	chunk int
	val   uint64
}

// torusNode is one machine node: an actor confined to its locale.
type torusNode struct {
	m       *TorusWorld
	id      int
	loc     sim.Locale
	net     *flow.Network
	next    int // successor on the logical ring
	nextLoc int
	route   []flow.Hop    // dimension-ordered path to successor
	delay   time.Duration // propagation latency of route

	// carry is the digest the node sends next: its own chunk's initial
	// digest at step 0, then the chunk received on the step before (with
	// the node's own digest of it added during reduce-scatter). sum is the
	// wrapping sum of the fully reduced chunks landed so far, what the
	// commit sample records; err is the first that differed from the
	// machine's want.
	carry uint64
	sum   uint64
	err   error

	step     int // the node is done once it reaches the machine's total
	sendDone bool
	recvDone bool
	inbox    []*torusDelivery // arrivals for steps we have not reached yet
	out      *torusDelivery   // the chunk in flight: what torusSent delivers
	spare    *torusDelivery   // the last applied delivery, for the next send

	log []flight.Event // local samples, merged deterministically post-run
}

// TorusWorld is the full torus plus its node actors, bound to a fabric.
type TorusWorld struct {
	cfg   TorusConfig
	fab   sim.Fabric
	top   *torus.Topology
	nodes []torusNode
	want  []uint64 // every chunk's fully reduced digest
	total int      // allreduce steps per node
}

// torusLookahead checks cfg's machine and partition and returns the
// lookahead of its fabric. NewTorusWorldOn gives every link the segment
// latency, so the least latency among the links crossing the z-block
// partition is that latency, and a single shard, which no link crosses,
// falls back to it: no topology needs building to find it.
func torusLookahead(cfg TorusConfig) time.Duration {
	if cfg.DX*cfg.DY*cfg.DZ < 2 {
		panic("mpi: torus machine needs at least two nodes")
	}
	torus.PlanesPerShard(cfg.DZ, cfg.Shards)
	return cfg.SegmentLatency
}

// NewTorusFabric builds the conservative-parallel fabric for cfg: one shard
// per z-plane block, lookahead the latency of the links crossing the
// partition.
func NewTorusFabric(cfg TorusConfig) sim.Fabric {
	return sim.NewShardedEngine(cfg.Shards, torusLookahead(cfg))
}

// NewTorusOracle builds the sequential-oracle fabric for cfg: the same
// locale count over one sequential engine, the differential-testing
// baseline for the sharded fabric.
func NewTorusOracle(cfg TorusConfig) sim.Fabric {
	return sim.NewSeqFabric(sim.NewEngine(), cfg.Shards, torusLookahead(cfg))
}

// NewTorusWorldOn builds the torus machine on an existing fabric. On a
// sharded engine every locale gets its own flow network (the per-shard
// solve); on any other fabric all locales share one monolithic network —
// the oracle baseline whose per-event costs grow with the whole machine's
// flow count. Each network is sized for the flows of its nodes, one per
// node in flight.
func NewTorusWorldOn(f sim.Fabric, cfg TorusConfig) *TorusWorld {
	torusLookahead(cfg) // for its checks of the machine and the partition
	if f.Locales() != cfg.Shards {
		panic(fmt.Sprintf("mpi: torus config wants %d locales, fabric has %d", cfg.Shards, f.Locales()))
	}
	// The torus is calibrated like the ring it is built of: 166 MHz segments,
	// and nodes that deposit at the adapter's sustained put rate (beginStep).
	top := torus.New(cfg.DX, cfg.DY, cfg.DZ, ring.BandwidthForMHz(ring.DefaultLinkMHz), nil).
		SetLinkLatency(cfg.SegmentLatency)
	nets := make([]*flow.Network, cfg.Shards)
	if _, sharded := f.(*sim.ShardedEngine); sharded {
		for i := range nets {
			nets[i] = flow.NewNetworkOn(f.Locale(i))
			if cfg.Registry != nil {
				// Each shard runs on a goroutine of its own, and a registry
				// belongs to one: publish merges the shard's (Network.Publish).
				nets[i].SetMetrics(obs.NewRegistry())
			}
			nets[i].ReserveFlows(top.Nodes() / cfg.Shards)
		}
	} else {
		net := flow.NewNetworkOn(f.Locale(0))
		net.SetMetrics(cfg.Registry)
		net.ReserveFlows(top.Nodes())
		for i := range nets {
			nets[i] = net
		}
	}
	return buildTorusWorld(cfg, f, top, top.PartitionZ(cfg.Shards), nets)
}

// buildTorusWorld lays out the node actors. Every kind of per-node record —
// node, route, sample log, delivery — is one slab for the whole machine, and
// each node's share of it a capped row sized for the whole run, so no node's
// append ever reaches a neighbour's row.
func buildTorusWorld(cfg TorusConfig, fab sim.Fabric, top *torus.Topology, assign []int, nets []*flow.Network) *TorusWorld {
	n := top.Nodes()
	m := &TorusWorld{
		cfg: cfg, fab: fab, top: top,
		nodes: make([]torusNode, n),
		want:  make([]uint64, n),
		total: 2 * (n - 1),
	}
	hopCount := 0
	for i := 0; i < n; i++ {
		hopCount += top.HopCount(i, (i+1)%n)
	}
	// A node samples every sampleEvery-th of its steps, then its commit.
	every := m.sampleEvery()
	samples := (m.total+every-1)/every + 1
	hops := make([]flow.Hop, 0, hopCount)
	logs := make([]flight.Event, n*samples)
	deliveries := make([]torusDelivery, n)
	for i := range m.nodes {
		next := (i + 1) % n
		shard := assign[i]
		start := len(hops)
		hops = top.AppendHops(hops, i, next)
		nd := &m.nodes[i]
		*nd = torusNode{
			m: m, id: i, loc: fab.Locale(shard), net: nets[shard],
			next: next, nextLoc: assign[next],
			route: hops[start:len(hops):len(hops)],
			carry: torusChunkInit(i, ringSendBlock(i, 0, n)),
			log:   logs[i*samples : i*samples : (i+1)*samples],
			spare: &deliveries[i],
		}
		nd.delay = flow.PathLatency(nd.route)
		for c := range m.want {
			m.want[c] += torusChunkInit(i, c)
		}
	}
	// Ring-neighbour routes share no segment: one flow slot per link.
	flow.ReserveSlots(hops)
	return m
}

// torusChunkInit is the deterministic initial digest of (node, chunk) —
// splitmix64 over the pair, so every input is distinct and the reduced
// values exercise all 64 bits.
func torusChunkInit(node, chunk int) uint64 {
	z := uint64(node)<<32 ^ uint64(chunk) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// beginStep starts the node's transfer for the current step, or finishes
// the node when all steps are done.
func (nd *torusNode) beginStep() {
	m := nd.m
	if nd.step >= m.total {
		nd.log = append(nd.log, flight.Event{At: nd.loc.Now(), Kind: flight.KCommit,
			A: int64(nd.step), B: int64(nd.sum)})
		return
	}
	d := nd.spare
	if d == nil {
		d = new(torusDelivery)
	}
	c := ringSendBlock(nd.id, nd.step, len(m.nodes))
	*d = torusDelivery{to: &m.nodes[nd.next], step: nd.step, chunk: c, val: nd.carry}
	nd.out, nd.spare = d, nil
	nd.sendDone, nd.recvDone = false, false
	if every := m.sampleEvery(); nd.step%every == 0 {
		nd.log = append(nd.log, flight.Event{At: nd.loc.Now(), Kind: flight.KPut,
			A: int64(nd.next), B: int64(c), C: int64(d.val)})
	}
	nd.net.StartCall(nd.route, m.cfg.ChunkBytes, sci.SustainedPutBW, torusSent, nd)
}

// torusBegin starts a node's first step (the seeding event of Run).
func torusBegin(arg any) { arg.(*torusNode).beginStep() }

// torusSent continues a node whose transfer of the current step finished:
// the chunk leaves for the successor, one route latency away.
func torusSent(arg any) {
	nd := arg.(*torusNode)
	nd.loc.Send(nd.nextLoc, nd.delay, torusDeliver, nd.out)
	nd.out, nd.sendDone = nil, true
	nd.maybeAdvance()
}

// torusDeliver hands an arrived chunk to its destination node.
func torusDeliver(arg any) {
	d := arg.(*torusDelivery)
	d.to.onRecv(d)
}

func (m *TorusWorld) sampleEvery() int {
	if m.cfg.SampleEvery > 0 {
		return m.cfg.SampleEvery
	}
	return 64
}

// onRecv runs on the receiving node's locale: apply the chunk if the node
// is at the message's step, otherwise buffer it (the sender may run up to
// a ring circumference ahead).
func (nd *torusNode) onRecv(d *torusDelivery) {
	if d.step != nd.step || nd.recvDone {
		if d.step <= nd.step {
			panic(fmt.Sprintf("mpi: torus node %d got duplicate step %d at step %d", nd.id, d.step, nd.step))
		}
		nd.inbox = append(nd.inbox, d)
		return
	}
	nd.apply(d)
	nd.maybeAdvance()
}

// apply takes one received chunk as the node's carry — with the node's own
// digest of it added during reduce-scatter — lands it if it is now fully
// reduced (from the last reduce-scatter step on), and recycles the delivery.
func (nd *torusNode) apply(d *torusDelivery) {
	m := nd.m
	n := len(m.nodes)
	v := d.val
	if nd.step < n-1 {
		v += torusChunkInit(nd.id, d.chunk)
	}
	if nd.step >= n-2 {
		nd.sum += v
		if want := m.want[d.chunk]; v != want && nd.err == nil {
			nd.err = fmt.Errorf("mpi: torus node %d chunk %d = %#x, want %#x", nd.id, d.chunk, v, want)
		}
	}
	nd.carry = v
	nd.recvDone = true
	nd.spare = d
}

// maybeAdvance moves to the next step once the node's own transfer finished
// and the predecessor's chunk arrived.
func (nd *torusNode) maybeAdvance() {
	if !nd.sendDone || !nd.recvDone {
		return
	}
	nd.step++
	nd.beginStep()
	if nd.step >= nd.m.total {
		return
	}
	for i, d := range nd.inbox {
		if d.step == nd.step {
			nd.inbox = slices.Delete(nd.inbox, i, i+1)
			nd.apply(d)
			// The new transfer just started and takes positive virtual
			// time, so sendDone is false: no further advance from here.
			return
		}
	}
}

// Run executes the allreduce to completion, publishes the machine's counts
// into the configured registry and verifies the reduction.
func (m *TorusWorld) Run() (TorusResult, error) {
	for i := range m.nodes {
		nd := &m.nodes[i]
		nd.loc.AfterCall(0, torusBegin, nd)
	}
	end := m.fab.Run()
	m.publish(m.cfg.Registry)
	res := TorusResult{
		Nodes: len(m.nodes), Shards: m.cfg.Shards, End: end,
		Events: m.fab.Events(), Steps: m.total,
	}
	if se, ok := m.fab.(*sim.ShardedEngine); ok {
		res.Windows = se.Windows()
	}
	for _, v := range m.want {
		res.Checksum += v
	}
	// Every node must have landed every chunk fully reduced: each as it
	// landed, and all of them, once each, in its sum.
	for i := range m.nodes {
		nd := &m.nodes[i]
		if nd.step < m.total {
			return res, fmt.Errorf("mpi: torus node %d stalled at step %d/%d", nd.id, nd.step, m.total)
		}
		if nd.err != nil {
			return res, nd.err
		}
		if nd.sum != res.Checksum {
			return res, fmt.Errorf("mpi: torus node %d landed chunks summing to %#x, want %#x", nd.id, nd.sum, res.Checksum)
		}
	}
	return res, nil
}

// publish adds the run's counts to r on the caller's goroutine, once the
// engine has returned: each distinct flow network's (the oracle's shared one
// once; a shard's transfer histogram merged) and the chunks the nodes sent,
// one per step they finished.
func (m *TorusWorld) publish(r *obs.Registry) {
	if r == nil {
		return
	}
	var nets []*flow.Network
	var chunks int64
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !slices.Contains(nets, nd.net) {
			nets = append(nets, nd.net)
			nd.net.Publish(r)
		}
		chunks += int64(nd.step)
	}
	r.AddStats("mpi.torus", struct{ Chunks, Bytes int64 }{chunks, chunks * m.cfg.ChunkBytes})
}

// FlightDump merges every node's local samples into one deterministic
// flight dump. Nodes log into private slices during the (possibly parallel)
// run; here the events are ordered by their full content key and re-recorded
// sequentially, so the bytes are identical across engines, shard counts and
// OS schedules — the artifact the determinism gate hashes.
func (m *TorusWorld) FlightDump() []byte {
	type tagged struct {
		actor string
		ev    flight.Event
	}
	var all []tagged
	perActor := 0
	for i := range m.nodes {
		nd := &m.nodes[i]
		if len(nd.log) > perActor {
			perActor = len(nd.log)
		}
		name := fmt.Sprintf("node%04d", nd.id)
		for _, ev := range nd.log {
			all = append(all, tagged{actor: name, ev: ev})
		}
	}
	sortTagged := func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.actor != b.actor {
			return a.actor < b.actor
		}
		if a.ev.Kind != b.ev.Kind {
			return a.ev.Kind < b.ev.Kind
		}
		if a.ev.A != b.ev.A {
			return a.ev.A < b.ev.A
		}
		if a.ev.B != b.ev.B {
			return a.ev.B < b.ev.B
		}
		if a.ev.C != b.ev.C {
			return a.ev.C < b.ev.C
		}
		return a.ev.D < b.ev.D
	}
	sort.SliceStable(all, sortTagged)
	rec := flight.New(perActor + 1) // never evict: eviction would reintroduce order sensitivity
	for _, t := range all {
		rec.Actor(t.actor).Record(t.ev.At, t.ev.Kind, t.ev.A, t.ev.B, t.ev.C, t.ev.D)
	}
	var buf bytes.Buffer
	if err := rec.Snapshot("mpi: torus end of run").WriteJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
