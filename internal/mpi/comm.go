package mpi

import (
	"time"

	"scimpich/internal/memmodel"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// Comm is a rank's handle on the communicator (MPI_COMM_WORLD plus an
// internal context for library-level traffic).
type Comm struct {
	w       *World
	rk      *rank
	p       *sim.Proc
	ctx     int
	collCtx int
	// group holds the member world ranks of a split communicator; nil
	// means the world communicator (identity mapping).
	group []int
	// coll is the communicator's view for internal traffic, made by the
	// first collective() and its own view in turn. A copy that changes the
	// group, the contexts or the process (derive) starts without one.
	coll *Comm
	// shrink is the agreement record this handle's next Shrink joins; nil
	// for the world communicator before its first (see joinShrink).
	shrink *shrinkRec
}

// internal contexts for library traffic, separated from user messages.
const (
	ctxUser = iota
	ctxCollective
)

// Rank returns the calling process's rank within this communicator.
func (c *Comm) Rank() int {
	if c.group == nil {
		return c.rk.id
	}
	return c.localRank(c.rk.id)
}

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int {
	if c.group == nil {
		return c.w.size
	}
	return len(c.group)
}

// WorldRank returns the calling process's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.rk.id }

// GroupToWorld translates a communicator-local rank to a world rank.
func (c *Comm) GroupToWorld(r int) int { return c.worldRank(r) }

// Proc exposes the underlying simulation process (for libraries layered on
// the runtime, like one-sided communication).
func (c *Comm) Proc() *sim.Proc { return c.p }

// World returns the runtime the communicator belongs to.
func (c *Comm) World() *World { return c.w }

// Wtime returns the virtual time in seconds (MPI_Wtime).
func (c *Comm) Wtime() float64 { return c.p.Now().Seconds() }

// WtimeDuration returns the virtual time as a duration.
func (c *Comm) WtimeDuration() time.Duration { return c.p.Now() }

// Tracer returns the world's span tracer (for libraries layered on the
// runtime that bracket their own operations, like one-sided epochs).
func (c *Comm) Tracer() *obs.Trace { return c.w.cfg.Tracer }

// Metrics returns the world's metrics registry (nil when none is
// configured); libraries layered on the runtime register their collectors
// here.
func (c *Comm) Metrics() *obs.Registry { return c.w.cfg.Metrics }

// Actor returns this rank's actor name ("rank<i>"), which its processes,
// trace spans and flight ring carry.
func (c *Comm) Actor() string { return c.rk.actor }

// FlightRing returns this rank's flight-recorder ring (nil without a
// recorder). Layered libraries (one-sided windows, rmem) record their
// protocol events into the owning rank's ring so a post-mortem reads one
// interleaved timeline per rank.
func (c *Comm) FlightRing() *flight.Ring { return c.rk.fl }

// mem returns the node's memory model.
func (c *Comm) mem() *memmodel.Model { return c.w.cfg.Shm.Mem }

// collective returns the communicator's view for internal traffic: the same
// communicator in its collective context, one per communicator.
func (c *Comm) collective() *Comm {
	if c.coll == nil {
		c.setCollective(new(Comm))
	}
	return c.coll
}

// setCollective makes cc, in the caller's storage, c's collective view: c in
// its collective context, which is its own collective view.
func (c *Comm) setCollective(cc *Comm) {
	*cc = *c
	cc.ctx = cc.collCtx
	cc.coll = cc
	c.coll = cc
}

// derive returns a copy of c for the caller to change: everything but the
// cached collective view, which would keep the old group, contexts and
// process.
func (c *Comm) derive() *Comm {
	d := *c
	d.coll = nil
	return &d
}

// Run builds a cluster from cfg, runs main once per rank, and returns the
// virtual time at which the last rank finished. With a metrics registry
// configured, the world's counts are published into it after the run.
func Run(cfg Config, main func(c *Comm)) time.Duration {
	return RunOn(NewFabric(cfg), cfg, main)
}

// NewFabric builds the fabric Run would use for cfg: a one-locale wrap of a
// fresh sequential engine. One locale sends nothing across locales, so the
// fabric needs no lookahead.
func NewFabric(cfg Config) sim.Fabric {
	return sim.NewLocalFabric(1, 0)
}

// RunOn builds a world on an existing fabric, runs main once per rank, and
// runs the fabric to completion (for harnesses that mix in extra
// simulation components on other locales).
func RunOn(f sim.Fabric, cfg Config, main func(c *Comm)) time.Duration {
	w := NewWorldOn(f, cfg)
	w.Spawn(main)
	end := f.Run()
	w.PublishMetrics(cfg.Metrics)
	return end
}

// NewWorldOn wires a cluster onto locale 0 of an existing sequential fabric.
// The caller runs the fabric. A world's ranks and device daemons are
// processes, and only the sequential engine runs processes, so a sharded
// fabric is refused here rather than at the first spawn.
func NewWorldOn(f sim.Fabric, cfg Config) *World {
	if _, ok := f.(*sim.ShardedEngine); ok {
		panic(shardedWorldRule)
	}
	return newWorld(f, cfg)
}

// shardedWorldRule is why NewWorldOn refuses a sharded fabric.
const shardedWorldRule = "mpi: a world needs a sequential fabric (mpi.NewFabric or sim.NewSeqFabric): its ranks are processes, and a sharded engine runs none"

// Fabric returns the fabric the world's locale belongs to.
func (w *World) Fabric() sim.Fabric { return w.fabric }

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Run spawns main on every rank, runs the world's fabric to completion and
// publishes metrics (the single-world counterpart of RunOn for a World
// built with NewWorldOn).
func (w *World) Run(main func(c *Comm)) time.Duration {
	w.Spawn(main)
	end := w.fabric.Run()
	w.PublishMetrics(w.cfg.Metrics)
	return end
}

// Spawn starts main on every rank, as processes hosted on the world's
// locale; a rank runs one process, so a world spawns once. The ranks' world
// communicators and their collective views are one slab, and no rank makes a
// closure: each process runs rankMain, which finds main in the world and its
// communicator in the process.
func (w *World) Spawn(main func(c *Comm)) {
	if w.main != nil {
		panic("mpi: Spawn on a world that already spawned its ranks")
	}
	w.main = main
	comms := make([]Comm, 2*w.size)
	for r, rk := range w.ranks {
		c := &comms[2*r]
		*c = Comm{w: w, rk: rk, ctx: ctxUser, collCtx: ctxCollective}
		c.p = w.host.Go(rk.actor, rankMain)
		c.p.SetArg(c)
		c.setCollective(&comms[2*r+1])
	}
}

// rankMain is the body of every rank's process.
func rankMain(p *sim.Proc) {
	c := p.TakeArg().(*Comm)
	c.w.main(c)
}

// Stats returns a copy of the device statistics of a rank.
func (w *World) Stats(rank int) DeviceStats { return w.ranks[rank].dev.stats }

// WorldStats returns a copy of the world's decision and volume counts.
func (w *World) WorldStats() WorldStats { return w.stats }

// PublishMetrics adds each stats struct of the world to r once (see
// obs.Registry.AddStats), so worlds sharing a registry sum: the fabric's
// sim.* costs, the WorldStats (mpi.*), every rank's DeviceStats
// (mpi.device.*), the pack totals (pack.*{engine=e}), the buses' flow.*,
// the interconnect's counts (see sci.Interconnect.Publish) and what layers
// registered with OnPublish (osc.*). Adding is not idempotent, so a second
// call is a no-op. Run calls it when Config.Metrics is set.
func (w *World) PublishMetrics(r *obs.Registry) {
	if r == nil || w.published {
		return
	}
	w.published = true
	f := w.fabric
	r.AddStats("sim", struct {
		Events, ProcSwitches, ProcsStarted, SleepsElided, TimersCancelled int64
		HeapDepthMax                                                      int64 `metric:",max"`
	}{int64(f.Events()), int64(f.ProcSwitches()), int64(f.ProcsStarted()),
		int64(f.SleepsElided()), int64(f.TimersCancelled()), int64(f.HeapDepthMax())})
	r.AddStats("mpi", w.stats)
	for rank := range w.ranks {
		r.AddStats("mpi.device", w.Stats(rank))
	}
	r.AddStats("pack", w.packFF, "engine", "direct_pack_ff")
	r.AddStats("pack", w.packGeneric, "engine", "generic")
	w.buses[0].Network().Publish(r)
	if w.ic != nil {
		w.ic.Publish(r)
	}
	for _, publish := range w.publishers {
		publish(r)
	}
}

// OnPublish registers publish to add a layer's counts to the registry when
// the world publishes (PublishMetrics).
func (w *World) OnPublish(publish func(*obs.Registry)) {
	w.publishers = append(w.publishers, publish)
}

// MemModel returns the per-node memory hierarchy model.
func (w *World) MemModel() *memmodel.Model { return w.cfg.Shm.Mem }

// InterconnectStats returns a copy of the SCI adapter
// statistics of a node (zero value on single-node clusters).
func (w *World) InterconnectStats(node int) sci.Stats {
	if w.ic == nil {
		return sci.Stats{}
	}
	return w.ic.Node(node).Snapshot()
}

// NodeAlive reports whether a rank's node is currently up (always true on
// single-node clusters with no SCI interconnect).
func (w *World) NodeAlive(rank int) bool {
	if w.ic == nil {
		return true
	}
	return w.ic.Alive(w.ranks[rank].node)
}
