// Package flow models bulk data transfers over a network of capacitated
// links using max-min fair bandwidth sharing ("progressive filling").
//
// A Flow occupies a path of Links and is additionally capped by a per-flow
// source rate (modelling, e.g., the PIO output limit of a PCI-SCI adapter).
// Whenever a flow starts or completes, rates are recomputed and the next
// completion event is rescheduled, so contention between overlapping
// transfers is resolved exactly in virtual time. The recomputation is
// incremental: a start or finish dirties only the links it touches, and the
// solver re-runs progressive filling only over the connected component of
// the flow↔link sharing graph those links belong to — flows that share no
// link (even transitively) with the change keep their rates. Max-min
// allocations decompose exactly over these components, and the solver always
// works one component at a time in a deterministic order, so the incremental
// rates are bit-identical to a from-scratch solve.
//
// Links can degrade under load: each Link may carry a CongestionModel that
// turns (offered load, multiplexing degree) into an achievable fraction of
// the nominal capacity. The SCI ring calibration lives in congestion.go.
package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"scimpich/internal/obs"
	"scimpich/internal/sim"
)

// Link is a unidirectional, capacitated network resource.
type Link struct {
	name     string
	capacity float64       // bytes/second, nominal
	latency  time.Duration // propagation latency (lookahead source; 0 = unset)
	model    CongestionModel

	flows []linkFlow // flows crossing this link, in admission order
	dirty bool       // queued in Network.dirty
	mark  uint64     // Network.epoch at which this link was last visited

	// Progressive-filling state, valid while mark is the solving epoch.
	residual float64 // capacity not yet granted to frozen flows
	weight   float64 // sum of unfrozen flow weights
}

// linkFlow is one flow's presence on a link: the flow and the fraction of its
// rate the link carries (the summed weight of every hop naming the link).
type linkFlow struct {
	flow   *Flow
	weight float64
}

// Hop is one step of a flow's path: a link and the fraction of the flow's
// rate that this link must carry. Data segments have weight 1; SCI
// flow-control echo packets returning around the ring load the other
// segments at a small fraction of the data rate.
type Hop struct {
	Link   *Link
	Weight float64
}

// Path converts a plain link list into a weight-1 hop path.
func Path(links ...*Link) []Hop {
	hops := make([]Hop, len(links))
	for i, l := range links {
		hops[i] = Hop{Link: l, Weight: 1}
	}
	return hops
}

// NewLink returns a link with the given nominal capacity in bytes/second.
// model may be nil for an ideal (loss-free) link.
func NewLink(name string, capacity float64, model CongestionModel) *Link {
	if capacity <= 0 {
		panic("flow: link capacity must be positive")
	}
	return &Link{name: name, capacity: capacity, model: model}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's nominal capacity in bytes/second.
func (l *Link) Capacity() float64 { return l.capacity }

// SetLatency records the link's propagation latency. The flow solver ignores
// it (transfer time is rate-driven); it exists so topologies can expose the
// minimum cross-partition delay as the conservative lookahead of a sharded
// simulation. It returns the link for chained construction.
func (l *Link) SetLatency(d time.Duration) *Link {
	if d < 0 {
		panic("flow: negative link latency")
	}
	l.latency = d
	return l
}

// Latency returns the link's propagation latency (zero if never set).
func (l *Link) Latency() time.Duration { return l.latency }

// PathLatency sums the propagation latencies along a hop path.
func PathLatency(path []Hop) time.Duration {
	var d time.Duration
	for _, h := range path {
		d += h.Link.Latency()
	}
	return d
}

// MinLatency returns the smallest latency among links, or zero for an empty
// set. A sharded engine partitioned so that every cross-shard interaction
// traverses at least one of links may use this as its lookahead — provided
// it is positive.
func MinLatency(links []*Link) time.Duration {
	var min time.Duration
	for i, l := range links {
		if i == 0 || l.latency < min {
			min = l.latency
		}
	}
	return min
}

// effectiveCapacity computes the usable capacity given the current set of
// flows, using the congestion model if present. demand is the sum of the
// unconstrained source rates of the flows crossing this link, accumulated in
// admission order so the float result is run-independent.
func (l *Link) effectiveCapacity() float64 {
	if l.model == nil || len(l.flows) == 0 {
		return l.capacity
	}
	demand := 0.0
	for _, lf := range l.flows {
		demand += lf.flow.srcCap * lf.weight
	}
	load := demand / l.capacity
	frac := l.model.AchievedFraction(load, len(l.flows))
	achieved := l.capacity * frac
	if achieved > demand {
		achieved = demand
	}
	return achieved
}

// Flow is one in-flight bulk transfer.
type Flow struct {
	id      uint64  // admission order within the owning network
	path    []Hop   // each link once (repeats merged at admission)
	srcCap  float64 // per-flow rate cap (bytes/second)
	rate    float64 // current allocated rate
	done    *sim.Future
	started time.Duration // virtual start time (for the duration metric)
	bytes   int64         // total transfer size

	// Progress anchor: the bytes left at the instant of the last rate
	// change. The bytes left now are always derived from it in a single
	// expression (remainingAt), so the float result depends only on the last
	// rate change, never on how often or when it was read. Without this, two
	// simulations of the same flows that look at different instants (a
	// monolithic network vs. per-shard networks) would accumulate different
	// rounding residues and finish transfers a nanosecond apart.
	anchorAt        time.Duration
	anchorRemaining float64

	// fields used during rate computation
	frozen bool
	mark   uint64 // component-search epoch
}

// Rate returns the currently allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Done returns a future completed when the transfer finishes.
func (f *Flow) Done() *sim.Future { return f.done }

// remainingAt returns the bytes left at virtual time now.
func (f *Flow) remainingAt(now time.Duration) float64 {
	return max(0, f.anchorRemaining-f.rate*(now-f.anchorAt).Seconds())
}

// Network tracks active flows and drives their completion in virtual time.
type Network struct {
	s      sim.Scheduler
	flows  []*Flow // active flows in admission order
	nextID uint64
	next   sim.Timer

	dirty []*Link // links whose flow set changed since the last solve
	epoch uint64  // current link/flow marking generation
	comp  []*Flow // scratch: the component being solved, in admission order
	links []*Link // scratch: that component's links

	// metric collectors (nil without SetMetrics; nil collectors are no-ops).
	transferNS *obs.Histogram
	metBytes   *obs.Counter
	activeHW   *obs.Gauge
	highWater  int
}

// NewNetwork returns an empty flow network bound to the sequential engine.
func NewNetwork(e *sim.Engine) *Network { return NewNetworkOn(e) }

// NewNetworkOn returns an empty flow network driven by any scheduler — a
// sequential Engine or one shard of a sharded engine. A network must only
// ever be used from its scheduler's domain; per-shard networks are how a
// partitioned simulation keeps its rate solves small and lock-free.
func NewNetworkOn(s sim.Scheduler) *Network {
	return &Network{s: s}
}

// SetMetrics registers the network's collectors in r: a completed-transfer
// duration histogram (flow.transfer.ns), a delivered-bytes counter
// (flow.bytes) and a concurrent-flows high-water gauge (flow.active.max).
// Call it right after NewNetwork; a nil registry leaves metrics disabled.
// The collectors themselves are goroutine-safe, so shard-local networks may
// share one registry.
func (n *Network) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	n.transferNS = r.Histogram("flow.transfer.ns")
	n.metBytes = r.Counter("flow.bytes")
	n.activeHW = r.Gauge("flow.active.max")
}

// ActiveFlows returns the number of in-flight transfers.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// noteStarted records a flow's admission for the high-water gauge.
func (n *Network) noteStarted() {
	if len(n.flows) > n.highWater {
		n.highWater = len(n.flows)
		n.activeHW.Max(int64(n.highWater))
	}
}

// noteFinished feeds a completed flow into the duration and byte metrics.
func (n *Network) noteFinished(f *Flow) {
	n.transferNS.ObserveDuration(n.s.Now() - f.started)
	n.metBytes.Add(f.bytes)
}

// markDirty queues l for the next incremental solve.
func (n *Network) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		n.dirty = append(n.dirty, l)
	}
}

// admit validates and creates a flow and, unless it is empty (then it is
// complete already), registers it on the network and its links and dirties
// the links.
func (n *Network) admit(path []Hop, bytes int64, srcCap float64) *Flow {
	if srcCap <= 0 {
		panic("flow: source cap must be positive")
	}
	for _, h := range path {
		if h.Weight <= 0 {
			panic("flow: hop weight must be positive")
		}
	}
	now := n.s.Now()
	f := &Flow{srcCap: srcCap, done: sim.NewFuture(), started: now, bytes: bytes}
	if bytes <= 0 {
		f.done.Complete(nil)
		return f
	}
	f.id = n.nextID
	n.nextID++
	f.anchorAt, f.anchorRemaining = now, float64(bytes)
	f.path = n.mergeRepeats(path)
	n.flows = append(n.flows, f)
	for _, h := range f.path {
		h.Link.flows = append(h.Link.flows, linkFlow{f, h.Weight})
		n.markDirty(h.Link)
	}
	if len(f.path) == 0 {
		// No links: the flow is its own component, bound only by its source.
		f.rate = f.srcCap
	}
	return f
}

// mergeRepeats returns path with every link named once, at its first
// position, carrying the sum (in path order) of the weights of the hops that
// name it. A path without repeats — the usual case — is returned as is.
func (n *Network) mergeRepeats(path []Hop) []Hop {
	n.epoch++
	var merged []Hop // nil while no hop has repeated a link
	for i, h := range path {
		if h.Link.mark != n.epoch {
			h.Link.mark = n.epoch
			if merged != nil {
				merged = append(merged, h)
			}
			continue
		}
		if merged == nil {
			merged = slices.Clone(path[:i])
		}
		j := slices.IndexFunc(merged, func(m Hop) bool { return m.Link == h.Link })
		merged[j].Weight += h.Weight
	}
	if merged == nil {
		return path
	}
	return merged
}

// Start begins a transfer of bytes over path, capped at srcCap bytes/second.
// It returns immediately; the flow's Done future completes when the last
// byte has been delivered. An empty path means the flow is limited only by
// srcCap. A link appearing in several hops accumulates their weights.
func (n *Network) Start(path []Hop, bytes int64, srcCap float64) *Flow {
	f := n.admit(path, bytes, srcCap)
	if bytes > 0 {
		n.noteStarted()
		n.reallocate()
	}
	return f
}

// StartBatch begins many transfers that share one rate recomputation —
// the moment large symmetric scenarios (a whole machine starting its bulk
// phase) need: starting n flows one by one costs n full max-min passes,
// a batch costs one.
func (n *Network) StartBatch(paths [][]Hop, bytes int64, srcCap float64) []*Flow {
	flows := make([]*Flow, len(paths))
	for i, path := range paths {
		flows[i] = n.admit(path, bytes, srcCap)
	}
	n.noteStarted()
	n.reallocate()
	return flows
}

// Transfer runs a flow to completion, blocking the calling process.
func (n *Network) Transfer(p *sim.Proc, path []Hop, bytes int64, srcCap float64) {
	f := n.Start(path, bytes, srcCap)
	p.Await(f.done)
}

// reallocate retires finished flows, re-solves the dirtied components and
// schedules the next completion event.
func (n *Network) reallocate() {
	n.next.Cancel()
	n.next = sim.Timer{}
	now := n.s.Now()

	// Retire flows that have reached (numerical) completion, compacting the
	// rest in place so both sets stay in admission order — futures are
	// completed in that order, and their callbacks schedule events. The
	// finished set is fixed at entry: no virtual time passes inside
	// reallocate. It is a fresh slice because those callbacks may start flows
	// and so re-enter reallocate.
	var finished []*Flow
	live := n.flows[:0]
	for _, f := range n.flows {
		if f.remainingAt(now) <= 1e-9 {
			finished = append(finished, f)
		} else {
			live = append(live, f)
		}
	}
	clear(n.flows[len(live):])
	n.flows = live
	for _, f := range finished {
		n.unlink(f)
		n.noteFinished(f)
	}

	n.solve()

	if len(n.flows) > 0 {
		soonest := time.Duration(math.MaxInt64)
		for _, f := range n.flows {
			d := sim.RateDuration(int64(math.Ceil(f.remainingAt(now))), f.rate)
			if d < soonest {
				soonest = d
			}
		}
		n.next = n.s.AfterCall(soonest, completionDue, n)
	}
	for _, f := range finished {
		f.done.Complete(nil)
	}
}

// completionDue is the completion timer's callback.
func completionDue(n any) { n.(*Network).reallocate() }

// unlink takes a retired flow off its links and dirties them.
func (n *Network) unlink(f *Flow) {
	for _, h := range f.path {
		l := h.Link
		l.flows = slices.DeleteFunc(l.flows, func(lf linkFlow) bool { return lf.flow == f })
		n.markDirty(l)
	}
	f.rate = 0
}

// solve re-runs progressive filling over every connected component of the
// flow↔link graph that contains a dirtied link. Components are discovered
// and solved one at a time; flows in untouched components keep their rates,
// which a from-scratch solve would reproduce bit-identically because it uses
// the same per-component code on the same admission-ordered flows.
func (n *Network) solve() {
	if len(n.dirty) == 0 {
		return
	}
	n.epoch++
	now := n.s.Now()
	for _, seed := range n.dirty {
		seed.dirty = false
		if seed.mark == n.epoch {
			continue
		}
		n.component(seed)
		// Rates are about to change: re-anchor progress at this instant,
		// while remainingAt still sees the rate that held until now.
		for _, f := range n.comp {
			f.anchorAt, f.anchorRemaining = now, f.remainingAt(now)
		}
		n.solveComponent()
	}
	n.dirty = n.dirty[:0]
}

// solveAll dirties every link carrying an active flow and re-solves. It is
// the from-scratch oracle the incremental bookkeeping is tested against.
func (n *Network) solveAll() {
	for _, f := range n.flows {
		for _, h := range f.path {
			n.markDirty(h.Link)
		}
	}
	n.solve()
}

// component collects into n.comp the active flows transitively sharing links
// with seed, sorted by admission id so the solver sees them in a
// run-independent order, and into n.links their links (and seed), each reset
// for progressive filling. n.links doubles as the traversal queue.
func (n *Network) component(seed *Link) {
	n.comp, n.links = n.comp[:0], n.links[:0]
	n.visit(seed)
	for i := 0; i < len(n.links); i++ {
		for _, lf := range n.links[i].flows {
			f := lf.flow
			if f.mark == n.epoch {
				continue
			}
			f.mark = n.epoch
			n.comp = append(n.comp, f)
			for _, h := range f.path {
				if h.Link.mark != n.epoch {
					n.visit(h.Link)
				}
			}
		}
	}
	slices.SortFunc(n.comp, func(a, b *Flow) int { return cmp.Compare(a.id, b.id) })
}

// visit marks l as part of the component being collected.
func (n *Network) visit(l *Link) {
	l.mark = n.epoch
	l.residual, l.weight = l.effectiveCapacity(), 0
	n.links = append(n.links, l)
}

// solveComponent performs weighted progressive filling over the connected
// component in n.comp and n.links: repeatedly find the tightest constraint (a
// link's fair share or a flow's source cap), freeze the flows it binds, and
// continue with the residual capacities. A flow with weight w on a link
// consumes w times its rate there; unfrozen flows on a link all receive the
// same rate, so the link's fair share is residual / sum-of-unfrozen-weights.
// Every float is accumulated over the admission-ordered flows; the order of
// n.links only feeds a minimum.
func (n *Network) solveComponent() {
	flows := n.comp
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
		for _, h := range f.path {
			h.Link.weight += h.Weight
		}
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		// Tightest link fair share.
		share := math.MaxFloat64
		for _, l := range n.links {
			if l.weight <= 1e-12 {
				continue
			}
			if s := l.residual / l.weight; s < share {
				share = s
			}
		}
		// Tightest source cap.
		minCap := math.MaxFloat64
		for _, f := range flows {
			if !f.frozen && f.srcCap < minCap {
				minCap = f.srcCap
			}
		}
		r := share
		if minCap < r {
			r = minCap
		}
		if r == math.MaxFloat64 || r < 0 {
			panic(fmt.Sprintf("flow: rate computation failed (share=%g cap=%g)", share, minCap))
		}
		froze := false
		for _, f := range flows {
			if f.frozen {
				continue
			}
			bound := f.srcCap <= r+1e-12
			if !bound {
				for _, h := range f.path {
					if h.Link.residual/h.Link.weight <= r+1e-12 {
						bound = true
						break
					}
				}
			}
			if bound {
				f.frozen = true
				f.rate = math.Min(r, f.srcCap)
				froze = true
				unfrozen--
				for _, h := range f.path {
					l := h.Link
					l.residual = max(0, l.residual-f.rate*h.Weight)
					l.weight = max(0, l.weight-h.Weight)
				}
			}
		}
		if !froze {
			panic("flow: progressive filling made no progress")
		}
	}
}
