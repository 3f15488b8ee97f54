package mpi

import (
	"strconv"
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

// WorldToGroup translates a world rank into this communicator (-1 if the
// rank is not a member).
func (c *Comm) WorldToGroup(world int) int { return c.localRank(world) }

// ContextID returns the communicator's context identifier (distinct per
// Dup/Split communicator; used by layered libraries to key collective
// state).
func (c *Comm) ContextID() int { return c.ctx }

// Node returns the cluster node this rank runs on.
func (c *Comm) Node() int { return c.rk.node }

// ProcsPerNode returns the SMP width of the cluster.
func (c *Comm) ProcsPerNode() int { return c.w.cfg.ProcsPerNode }

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

// Flight returns the world's flight recorder (nil when not configured;
// flight calls are nil-safe).
func (c *Comm) Flight() *flight.Recorder { return c.w.cfg.Flight }

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
		cc := c.derive()
		cc.ctx = cc.collCtx
		cc.coll = cc
		c.coll = cc
	}
	return c.coll
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
// configured, the per-rank and per-node statistics gauges are published
// into it after the run.
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
	if cfg.Metrics != nil {
		w.PublishMetrics(cfg.Metrics)
	}
	return end
}

// NewWorldOn wires a cluster onto locale 0 of an existing fabric. The
// caller runs the fabric.
func NewWorldOn(f sim.Fabric, cfg Config) *World {
	return newWorld(f, cfg)
}

// Fabric returns the fabric the world's locale belongs to.
func (w *World) Fabric() sim.Fabric { return w.fabric }

// Host returns the scheduling surface of the locale hosting the world.
func (w *World) Host() sim.Host { return w.host }

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Run spawns main on every rank, runs the world's fabric to completion and
// publishes metrics (the single-world counterpart of RunOn for a World
// built with NewWorldOn).
func (w *World) Run(main func(c *Comm)) time.Duration {
	w.Spawn(main)
	end := w.fabric.Run()
	if w.cfg.Metrics != nil {
		w.PublishMetrics(w.cfg.Metrics)
	}
	return end
}

// Spawn starts main on every rank, as processes hosted on the world's
// locale.
func (w *World) Spawn(main func(c *Comm)) {
	for r := 0; r < w.size; r++ {
		rk := w.ranks[r]
		w.host.Go(rk.actor, func(p *sim.Proc) {
			rk.p = p
			main(&Comm{w: w, rk: rk, p: p, ctx: ctxUser, collCtx: ctxCollective})
		})
	}
}

// Stats returns a copy of the device statistics of a rank.
func (w *World) Stats(rank int) DeviceStats { return w.ranks[rank].dev.stats }

// PublishMetrics exports the end-of-run statistics into a registry as
// gauges: the fabric's event, process-switch, started-process, elided-sleep
// and cancelled-timer counts and its deepest event heap (sim.events,
// sim.proc_switches, sim.procs_started, sim.sleeps_elided,
// sim.timers_cancelled, sim.heap_depth_max), every field of each rank's
// DeviceStats (mpi.device.*{rank=r}), of the per-engine pack totals (pack.*{engine=e})
// and of each node's sci.Stats (sci.node.*{node=n}), and sci.retries, the
// sum of the per-node retries. Run calls this
// automatically when Config.Metrics is set; harnesses driving the engine
// themselves call it after Engine.Run.
func (w *World) PublishMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	// What the run cost the simulator, beside what it did in the model.
	r.SetGauge("sim.events", int64(w.fabric.Events()))
	r.SetGauge("sim.proc_switches", int64(w.fabric.ProcSwitches()))
	r.SetGauge("sim.procs_started", int64(w.fabric.ProcsStarted()))
	r.SetGauge("sim.sleeps_elided", int64(w.fabric.SleepsElided()))
	r.SetGauge("sim.timers_cancelled", int64(w.fabric.TimersCancelled()))
	r.SetGauge("sim.heap_depth_max", int64(w.fabric.HeapDepthMax()))
	for rank := range w.ranks {
		r.SetGauges("mpi.device", w.Stats(rank), "rank", strconv.Itoa(rank))
	}
	r.SetGauges("pack", w.packFF, "engine", "direct_pack_ff")
	r.SetGauges("pack", w.packGeneric, "engine", "generic")
	if w.ic == nil {
		return
	}
	var retries int64
	for node := 0; node < w.cfg.Nodes; node++ {
		ns := w.InterconnectStats(node)
		r.SetGauges("sci.node", ns, "node", strconv.Itoa(node))
		retries += ns.Retries
	}
	r.SetGauge("sci.retries", retries)
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
