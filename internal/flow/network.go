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
// A flow costs what it touches. Active flows sit in an indexed min-heap keyed
// by the first virtual instant at which they read as finished, so retiring
// pops the root and arming the completion timer descends only the part of
// the heap that can hold the minimum; a solve re-keys only the flows it
// re-anchored. A flow the network never hands out (Transfer, StartCall) is
// recycled through a free list — the last reader frees: Transfer after its
// Await returns, the network just before it calls the continuation — while a
// flow returned by StartBatch belongs to the caller and is never reused.
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
// model may be nil for an ideal (loss-free) link. A link has no name: the
// first parameter is unused and stays for the repo's benchmark harness,
// which calls NewLink("l", bw, nil).
func NewLink(_ string, capacity float64, model CongestionModel) *Link {
	return &NewLinks(1, capacity, model)[0]
}

// NewLinks returns the n links of one topology in one slab, each with the
// given capacity and model.
func NewLinks(n int, capacity float64, model CongestionModel) []Link {
	if capacity <= 0 {
		panic("flow: link capacity must be positive")
	}
	links := make([]Link, n)
	for i := range links {
		links[i] = Link{capacity: capacity, model: model}
	}
	return links
}

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
		demand += float64(lf.flow.srcCap * lf.weight)
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
	done    sim.Future
	started time.Duration // virtual start time (for the duration metric)
	bytes   int64         // total transfer size

	// fn(arg) is the continuation of a StartCall flow, run in place of
	// completing done.
	fn  func(any)
	arg any

	// Progress anchor: the bytes left at the instant of the last rate
	// change. The bytes left now are always derived from it in a single
	// expression (remainingAt), so the float result depends only on the last
	// rate change, never on how often or when it was read. Without this, two
	// simulations of the same flows that look at different instants (a
	// monolithic network vs. per-shard networks) would accumulate different
	// rounding residues and finish transfers a nanosecond apart.
	anchorAt        time.Duration
	anchorRemaining float64

	// key is the first virtual instant at which remainingAt reads as finished
	// (see completionKey), a constant between two re-anchors; heapIdx is the
	// flow's position in Network.flows.
	key     time.Duration
	heapIdx int

	// fields used during rate computation
	frozen bool
	mark   uint64 // component-search epoch
}

// Done returns a future completed when the transfer finishes.
func (f *Flow) Done() *sim.Future { return &f.done }

// remainingAt returns the bytes left at virtual time now.
func (f *Flow) remainingAt(now time.Duration) float64 {
	return max(0, f.anchorRemaining-float64(f.rate*(now-f.anchorAt).Seconds()))
}

// finishedBelow is the residue, in bytes, at or below which a flow counts as
// delivered: progress is float arithmetic, and a timer armed for the last
// whole byte can fire with a sliver left.
const finishedBelow = 1e-9

// neverKey is the key of a flow that cannot finish within the representable
// virtual time.
const neverKey = time.Duration(math.MaxInt64)

// completionKey returns the first virtual instant at which remainingAt reads
// at most finishedBelow. remainingAt is non-increasing in its argument, so
// that instant is unique: the closed form lands within a few nanoseconds of
// it, and the two probe loops walk the float rounding off.
func (f *Flow) completionKey() time.Duration {
	if f.rate <= 0 {
		panic("flow: non-positive rate")
	}
	est := math.Ceil((f.anchorRemaining - finishedBelow) / f.rate * 1e9)
	if !(est < 1<<62) {
		return neverKey
	}
	t := f.anchorAt + time.Duration(max(0, est))
	for f.remainingAt(t) > finishedBelow {
		t++
	}
	for t > f.anchorAt && f.remainingAt(t-1) <= finishedBelow {
		t--
	}
	return t
}

// keySlack bounds how far before its key a flow's timer delay can point: the
// delay is the time for the whole bytes left, rounded up, so it reaches the
// key but for the float error of the progress expression — a few units in
// the last place of the anchored duration (2^-48 of it is 32 of them) plus
// the nanosecond roundings. key - keySlack(key) is non-decreasing in key,
// which is what lets nextDelay prune whole subtrees with it.
func keySlack(key time.Duration) time.Duration { return 2 + key>>48 }

// Network tracks active flows and drives their completion in virtual time.
type Network struct {
	s      sim.Scheduler
	flows  []*Flow // active flows: a min-heap on Flow.key
	nextID uint64
	next   sim.Timer
	free   []*Flow // recycled flows of Transfer and StartCall

	dirty []*Link // links whose flow set changed since the last solve
	epoch uint64  // current link/flow marking generation
	comp  []*Flow // scratch: the component being solved, in admission order
	links []*Link // scratch: that component's links

	// finished is the scratch of reallocate's retired sets. Completions may
	// start flows and so re-enter reallocate: each activation appends its set
	// behind those of the activations below it and truncates back to where it
	// began, so the slice is a stack of sets and is addressed by index.
	finished []*Flow

	// The last arm: its instant, the delay it found and the flow that set
	// it. A pass at that same instant (a batch of completions starting their
	// successors) retires nothing and changes no delay but those of the
	// flows it re-keys, so unless armedBy is among them, nextDelay compares
	// it with the flows in rekeyed instead of descending the heap again.
	armedAt    time.Duration
	armedDelay time.Duration
	armedBy    *Flow
	rekeyed    []*Flow // scratch: flows given a key since the last arm

	transferNS *obs.Histogram // nil without SetMetrics: a no-op
	stats      Stats
}

// Stats is a network's counts, the one store of the flow.* counters: the
// network bumps them, Stats returns them by value and Publish adds them to a
// registry. Plain integers suffice: a network is used from one domain only.
type Stats struct {
	Bytes      int64 // delivered by completed transfers
	Solves     int64 // solver passes: one per start, batch or completion timer
	Reanchored int64 // flows re-anchored by those passes
	HeapVisits int64 // flows evaluated to arm the completion timer
	ActiveMax  int64 `metric:"active.max,max"` // the most flows in flight at once
}

// NewNetworkOn returns an empty flow network driven by any scheduler — a
// sequential Engine or one shard of a sharded engine. A network must only
// ever be used from its scheduler's domain; per-shard networks are how a
// partitioned simulation keeps its rate solves small and lock-free.
func NewNetworkOn(s sim.Scheduler) *Network {
	return &Network{s: s}
}

// transferHist names the completed-transfer duration histogram.
const transferHist = "flow.transfer.ns"

// SetMetrics registers the network's completed-transfer duration histogram
// (flow.transfer.ns) in r; a nil registry leaves it disabled. r belongs to
// the goroutine that runs the network's scheduler, so shard-local networks
// each take their own. The counts are Stats (see Publish).
func (n *Network) SetMetrics(r *obs.Registry) {
	n.transferNS = r.Histogram(transferHist)
}

// Stats returns a copy of the network's counts.
func (n *Network) Stats() Stats { return n.stats }

// Publish adds the network's counts to r once, after the run: networks
// published into one registry sum, and flow.active.max keeps the largest.
// A transfer histogram that SetMetrics placed in another registry (a
// shard's own) is merged into r's, exactly.
func (n *Network) Publish(r *obs.Registry) {
	r.AddStats("flow", n.stats)
	if n.transferNS != nil {
		if h := r.Histogram(transferHist); h != n.transferNS {
			h.Merge(n.transferNS)
		}
	}
}

// noteStarted records a flow's admission for the high-water count.
func (n *Network) noteStarted() {
	n.stats.ActiveMax = max(n.stats.ActiveMax, int64(len(n.flows)))
}

// markDirty queues l for the next incremental solve.
func (n *Network) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		n.dirty = append(n.dirty, l)
	}
}

// validate panics on a transfer no network can carry.
func validate(path []Hop, srcCap float64) {
	if srcCap <= 0 {
		panic("flow: source cap must be positive")
	}
	for _, h := range path {
		if h.Weight <= 0 {
			panic("flow: hop weight must be positive")
		}
	}
}

// admit registers f, a zero Flow, as a validated transfer of bytes > 0 on
// the network and its links and dirties the links. Until the solve gives it
// a rate it sits at the bottom of the heap.
func (n *Network) admit(f *Flow, path []Hop, bytes int64, srcCap float64) {
	now := n.s.Now()
	f.srcCap, f.started, f.bytes = srcCap, now, bytes
	f.id = n.nextID
	n.nextID++
	f.anchorAt, f.anchorRemaining = now, float64(bytes)
	f.path = n.mergeRepeats(path)
	f.key = neverKey
	for _, h := range f.path {
		h.Link.flows = append(h.Link.flows, linkFlow{f, h.Weight})
		n.markDirty(h.Link)
	}
	if len(f.path) == 0 {
		// No links: the flow is its own component, bound only by its source.
		f.rate = f.srcCap
		f.key = f.completionKey()
		n.rekeyed = append(n.rekeyed, f)
	}
	n.heapPush(f)
}

// acquire returns a zero Flow the network owns, recycled when one is free
// (see sim.TakeFree).
func (n *Network) acquire() *Flow { return sim.TakeFree(&n.free) }

// ReserveFlows sizes the network for k more transfers of Transfer or
// StartCall in flight at once: the first of them makes all k records in one
// block, and neither the active-flow heap nor the set of flows retired at
// one instant grows to hold them.
func (n *Network) ReserveFlows(k int) {
	n.free = slices.Grow(n.free, k)
	n.flows = slices.Grow(n.flows, k)
	n.finished = slices.Grow(n.finished, k)
}

// ReserveSlots gives every link of path that has no room for a flow yet room
// for one, all from one slab. A caller that lays out routes sharing no link
// before it starts them pays one allocation for their links' flow lists
// instead of one per link; a link that more flows cross grows its list as
// usual.
func ReserveSlots(path []Hop) {
	slots := make([]linkFlow, len(path))
	for i, h := range path {
		if cap(h.Link.flows) == 0 {
			h.Link.flows = slots[i : i : i+1]
		}
	}
}

// release recycles a retired flow the network owns. Its last reader calls
// it, and no pointer to such a flow ever leaves the package, so a recycled
// flow needs no generation stamp.
func (n *Network) release(f *Flow) {
	*f = Flow{}
	n.free = append(n.free, f)
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

// StartBatch begins a transfer of bytes over each of paths, capped at srcCap
// bytes/second, all sharing one rate recomputation — the moment large
// symmetric scenarios (a whole machine starting its bulk phase) need:
// starting n flows one by one costs n full max-min passes, a batch costs
// one. It returns immediately; each flow's Done future completes when its
// last byte has been delivered. An empty path means the flow is limited only
// by srcCap. A link appearing in several hops accumulates their weights. The
// returned flows are the caller's: the network never reuses them.
func (n *Network) StartBatch(paths [][]Hop, bytes int64, srcCap float64) []*Flow {
	flows := make([]*Flow, len(paths))
	for i, path := range paths {
		flows[i] = n.admitOwned(path, bytes, srcCap)
	}
	n.noteStarted()
	n.reallocate()
	return flows
}

// admitOwned validates and admits a flow for its caller to keep; an empty one
// is complete already.
func (n *Network) admitOwned(path []Hop, bytes int64, srcCap float64) *Flow {
	validate(path, srcCap)
	f := new(Flow)
	if bytes <= 0 {
		f.done.Complete(nil)
	} else {
		n.admit(f, path, bytes, srcCap)
	}
	return f
}

// StartCall begins one transfer like StartBatch and calls fn(arg) when the
// last byte has been delivered — at once if there is none to deliver. It is
// the event-driven form for code with no process context (the AfterCall
// idiom: a shared top-level fn and an explicit arg instead of a closure); the
// flow never leaves the network, which recycles it.
func (n *Network) StartCall(path []Hop, bytes int64, srcCap float64, fn func(any), arg any) {
	validate(path, srcCap)
	if bytes <= 0 {
		fn(arg)
		return
	}
	f := n.acquire()
	f.fn, f.arg = fn, arg
	n.admit(f, path, bytes, srcCap)
	n.noteStarted()
	n.reallocate()
}

// Transfer runs a flow to completion, blocking the calling process.
func (n *Network) Transfer(p *sim.Proc, path []Hop, bytes int64, srcCap float64) {
	validate(path, srcCap)
	if bytes <= 0 {
		return
	}
	f := n.acquire()
	n.admit(f, path, bytes, srcCap)
	n.noteStarted()
	n.reallocate()
	p.Await(&f.done)
	n.release(f)
}

// reallocate retires finished flows, re-solves the dirtied components and
// schedules the next completion event.
func (n *Network) reallocate() {
	n.next.Cancel()
	n.next = sim.Timer{}
	now := n.s.Now()
	n.stats.Solves++

	// Retire the flows that have reached (numerical) completion: exactly
	// those whose key has come. They are ordered by admission — futures are
	// completed in that order, and their callbacks schedule events. The set
	// is fixed here: no virtual time passes inside reallocate.
	base := len(n.finished)
	for len(n.flows) > 0 && n.flows[0].key <= now {
		n.finished = append(n.finished, n.heapPop())
	}
	slices.SortFunc(n.finished[base:], byAdmission)
	for _, f := range n.finished[base:] {
		n.unlink(f)
		n.transferNS.ObserveDuration(now - f.started)
		n.stats.Bytes += f.bytes
	}

	n.solve()

	if len(n.flows) > 0 {
		n.next = n.s.AfterCall(n.nextDelay(now), completionDue, n)
	}
	clear(n.rekeyed)
	n.rekeyed = n.rekeyed[:0]
	for i := base; i < len(n.finished); i++ {
		f := n.finished[i]
		n.finished[i] = nil
		if f.fn == nil {
			f.done.Complete(nil)
			continue
		}
		fn, arg := f.fn, f.arg
		n.release(f)
		fn(arg)
	}
	n.finished = n.finished[:base]
}

// completionDue is the completion timer's callback.
func completionDue(n any) { n.(*Network).reallocate() }

// byAdmission orders flows by admission id.
func byAdmission(a, b *Flow) int { return cmp.Compare(a.id, b.id) }

// nextDelay returns the delay of the completion timer: the least, over the
// active flows, of the time their whole bytes left take at their rate. That
// value depends on now through the whole-byte ceiling — a timer that fires
// with a sliver left is re-armed one byte-time later — so it is evaluated
// from now, not read off the keys; the keys only bound it from below.
func (n *Network) nextDelay(now time.Duration) time.Duration {
	visits := len(n.rekeyed)
	if n.armedBy != nil && n.armedAt == now {
		for _, f := range n.rekeyed {
			n.consider(f, now)
		}
	} else {
		n.armedAt, n.armedDelay = now, math.MaxInt64
		visits = n.soonest(0, now)
	}
	n.stats.HeapVisits += int64(visits)
	return n.armedDelay
}

// consider lowers armedDelay to f's delay if that is less.
func (n *Network) consider(f *Flow, now time.Duration) {
	if d := f.delayAt(now); d < n.armedDelay {
		n.armedDelay, n.armedBy = d, f
	}
}

// soonest lowers armedDelay to the least delay in the subtree rooted at heap
// position i and returns the number of flows it evaluated. Every flow below
// i has a key at least i's and a delay no less than
// key - keySlack(key) - now, so the subtree is skipped once that bound
// reaches the least delay seen.
func (n *Network) soonest(i int, now time.Duration) int {
	if i >= len(n.flows) {
		return 0
	}
	f := n.flows[i]
	if f.key-keySlack(f.key)-now >= n.armedDelay {
		return 0
	}
	n.consider(f, now)
	return 1 + n.soonest(2*i+1, now) + n.soonest(2*i+2, now)
}

// delayAt returns the time the whole bytes f has left at now take at its
// rate.
func (f *Flow) delayAt(now time.Duration) time.Duration {
	return sim.RateDuration(int64(math.Ceil(f.remainingAt(now))), f.rate)
}

// The heap is sifted by hand. container/heap, which reaches Less and Swap
// through an interface, was measured in its place: a torus216_ring run took
// 0.250 of the parent commit's wall time instead of 0.227 (ten alternated
// pairs each), a tenth more.

// heapPush adds f to the heap.
func (n *Network) heapPush(f *Flow) {
	f.heapIdx = len(n.flows)
	n.flows = append(n.flows, f)
	n.heapUp(f.heapIdx)
}

// heapPop removes and returns the flow with the least key.
func (n *Network) heapPop() *Flow {
	h := n.flows
	f, last := h[0], len(h)-1
	h[0] = h[last]
	h[0].heapIdx = 0
	h[last] = nil
	n.flows = h[:last]
	n.heapDown(0)
	return f
}

// heapFix restores the heap order after f's key changed.
func (n *Network) heapFix(f *Flow) {
	if !n.heapDown(f.heapIdx) {
		n.heapUp(f.heapIdx)
	}
}

func (n *Network) heapSwap(i, j int) {
	h := n.flows
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}

func (n *Network) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if n.flows[parent].key <= n.flows[i].key {
			return
		}
		n.heapSwap(i, parent)
		i = parent
	}
}

// heapDown sifts position i down and reports whether it moved.
func (n *Network) heapDown(i int) bool {
	start := i
	for {
		least := 2*i + 1
		if least >= len(n.flows) {
			break
		}
		if r := least + 1; r < len(n.flows) && n.flows[r].key < n.flows[least].key {
			least = r
		}
		if n.flows[i].key <= n.flows[least].key {
			break
		}
		n.heapSwap(i, least)
		i = least
	}
	return i > start
}

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
		for _, f := range n.comp {
			f.key = f.completionKey()
			n.heapFix(f)
			if f == n.armedBy {
				n.armedBy = nil
			}
		}
		n.rekeyed = append(n.rekeyed, n.comp...)
		n.stats.Reanchored += int64(len(n.comp))
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
	slices.SortFunc(n.comp, byAdmission)
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
					l.residual = max(0, l.residual-float64(f.rate*h.Weight))
					l.weight = max(0, l.weight-h.Weight)
				}
			}
		}
		if !froze {
			panic("flow: progressive filling made no progress")
		}
	}
}
