package mpi

import (
	"slices"
	"time"

	"scimpich/internal/obs"
	"scimpich/internal/sci"
	"scimpich/internal/shmem"
	"scimpich/internal/sim"
)

// The collective algorithm engine: every collective call is dispatched
// through an algorithm chooser that ranks the implemented algorithm
// families per message size and communicator size. Like the rendezvous
// deposit chooser (pathsel.go) it is its cost model: the pick is the
// eligible family with the cheapest prior, a pure function of the call.
//
// Correctness requires every member of a collective to pick the *same*
// algorithm. Every input of the pick — kind, communicator size, payload,
// per-pair block and the world's configuration — is equal on all members of
// a matched call, and nothing is learned from earlier calls, so each member
// computes the same pick by itself.

// CollAlg selects the algorithm family of a collective operation.
type CollAlg int

const (
	// CollAuto (the default) ranks the eligible algorithms per call by
	// their cost-model priors.
	CollAuto CollAlg = iota
	// CollP2P forces the legacy point-to-point algorithms (binomial
	// trees, rings, pairwise exchange).
	CollP2P
	// CollRecDbl forces recursive doubling (allreduce); collectives
	// without a recursive-doubling variant fall back to their cheapest
	// point-to-point algorithm.
	CollRecDbl
	// CollRing forces the bandwidth-optimal ring algorithms (allreduce as
	// reduce-scatter + allgather); collectives without one fall back.
	CollRing
	// CollOneSided forces the shared-segment algorithms that deposit
	// directly into peers' collective windows; payloads that exceed the
	// window slots fall back per collective.
	CollOneSided

	collAlgCount
)

func (a CollAlg) String() string {
	switch a {
	case CollAuto:
		return "auto"
	case CollP2P:
		return "p2p"
	case CollRecDbl:
		return "recdbl"
	case CollRing:
		return "ring"
	case CollOneSided:
		return "onesided"
	default:
		return "unknown"
	}
}

// collKind identifies one collective operation in the chooser's tables and
// metric labels.
type collKind int

const (
	collBarrier collKind = iota
	collBcast
	collReduce
	collAllreduce
	collGather
	collAllgather
	collAlltoall

	collKindCount
)

func (k collKind) String() string {
	switch k {
	case collBarrier:
		return "barrier"
	case collBcast:
		return "bcast"
	case collReduce:
		return "reduce"
	case collAllreduce:
		return "allreduce"
	case collGather:
		return "gather"
	case collAllgather:
		return "allgather"
	case collAlltoall:
		return "alltoall"
	default:
		return "unknown"
	}
}

// --- cost-model priors ---

// collCtl is the prior for one zero/small control message between two
// ranks of this world (issue + wire + dispatch on the dominant transport).
func (w *World) collCtl() time.Duration {
	base := callOverhead + handlerLatency
	if w.ic != nil {
		return base + sci.WriteIssueOverhead + w.cfg.SCI.PIOWriteLatency
	}
	return base + shmem.SignalLatency
}

// collLinkBW is the prior for the sustained stream bandwidth between two
// ranks (bytes/sec) on the dominant transport.
func (w *World) collLinkBW() float64 {
	if w.ic != nil {
		return w.cfg.SCI.StreamWriteBW(w.protocol().RendezvousChunk)
	}
	return w.cfg.Shm.Mem.CopyBW(128 << 10)
}

// collStreamBW is the prior for the rate (bytes/sec) at which a member
// streams a message in transfers of chunk bytes from a source working set
// of ws bytes while all size members send at once, split evenly over the
// downstream distances dists (none: no pattern is priced). On SCI it
// mirrors Mapping.WriteStream — the adapter's stream rate for the chunk,
// capped by the local memory read of the source — under the ringlet's
// segment load (sci.Interconnect.ShiftBW) when the members are the
// ringlet's nodes, one on each. Traffic between the processes of one node
// gets no ring term.
func (w *World) collStreamBW(size int, chunk, ws int64, dists ...int) float64 {
	if w.ic == nil {
		return w.collLinkBW()
	}
	bw := w.cfg.SCI.Mem.EffectiveSourceBW(w.cfg.SCI.StreamWriteBW(chunk), ws)
	if len(dists) == 0 || w.cfg.ProcsPerNode != 1 || size != w.cfg.Nodes {
		return bw
	}
	return w.ic.ShiftBW(chunk, bw, dists...)
}

// modelP2PMsg is the prior for one point-to-point message of n bytes
// between members of a size-rank communicator that all send at once over
// the distances dists (see collStreamBW): protocol control traffic, wire
// time and the receiver's copy-out, mirroring what the short / eager /
// rendezvous paths bill for a contiguous message.
func (c *Comm) modelP2PMsg(n int64, size int, dists ...int) time.Duration {
	w := c.rk.w
	p := w.protocol()
	ctl := w.collCtl()
	switch {
	case n <= shortMax:
		return ctl
	case n <= p.EagerMax:
		// Slot deposit plus the receiver's copy-out and credit return.
		wire := sim.RateDuration(n, w.collStreamBW(size, n, n, dists...))
		return 2*ctl + wire + c.mem().CopyCost(n, n, n)
	default:
		// Request + CTS handshake, chunked deposits with per-chunk acks,
		// and the receiver's per-chunk copy-out. The two chunk slots
		// pipeline deposit and copy-out: the slower stage sets the pace,
		// and one chunk of the faster one shows.
		chunk := p.RendezvousChunk
		chunks := (n + chunk - 1) / chunk
		wire := sim.RateDuration(n, w.collStreamBW(size, chunk, n, dists...))
		unpack := c.mem().CopyCost(n, chunk, chunk)
		return time.Duration(2+chunks)*ctl + max(wire, unpack) + min(wire, unpack)/time.Duration(chunks)
	}
}

// modelOSBlock is the prior for one one-sided window exchange of n bytes,
// priced like modelP2PMsg: the deposit, a notify/ack pair, and the
// receiver's copy out of its window slot, a read of its own shared memory
// through the node's bus. No handshake and no per-chunk protocol — the
// point of the one-sided algorithms.
func (c *Comm) modelOSBlock(n int64, size int, dists ...int) time.Duration {
	w := c.rk.w
	return sim.RateDuration(n, w.collStreamBW(size, n, 2*n, dists...)) + 2*w.collCtl() + c.modelWindowCopy(n)
}

// modelOSServe is the prior for what one block of the one-sided window
// exchange (osExchange) costs beyond its wire time when its notify and ack
// travel behind the next deposit: the deposit's check, which waits out the
// write's latency, then for each of the notify and the ack a call at both
// ends and the receiver's dispatch, and the copy out of the window slot.
func (c *Comm) modelOSServe(n int64) time.Duration {
	latency := c.rk.w.collCtl() - callOverhead - handlerLatency
	return latency + 2*(2*callOverhead+handlerLatency) + c.modelWindowCopy(n)
}

// modelWindowCopy is the prior for copying n bytes out of this rank's own
// collective window: a read of shared memory, billed through the node's bus.
func (c *Comm) modelWindowCopy(n int64) time.Duration {
	return c.rk.w.cfg.Shm.CopyCost(n, c.mem().CopyCost(n, n, n))
}

// modelCombine is the prior for the elementwise reduction of n bytes
// (memory-bound: two streams in, one out). It matches chargeCombine.
func (c *Comm) modelCombine(n int64) time.Duration {
	return c.mem().CopyCost(n, n, 3*n)
}

// ceilLog2 returns ceil(log2(p)) for p >= 1.
func ceilLog2(p int) int {
	n := 0
	for 1<<n < p {
		n++
	}
	return n
}

// modelColl is the cost-model prior for one collective: kind and algorithm
// over size ranks, where bytes is the operation's per-rank payload and
// perPeer the per-pair block (they coincide for bcast and allreduce). The
// algorithms whose members all send at once in a fixed pattern — the
// rings, recursive doubling, the pairwise and the window exchange — price
// their wire under the segment load of that pattern (collStreamBW); the
// trees do not.
func (c *Comm) modelColl(kind collKind, alg CollAlg, size int, bytes, perPeer int64) time.Duration {
	w := c.rk.w
	depth := ceilLog2(size)
	steps := int64(size - 1)
	switch kind {
	case collBcast:
		switch alg {
		case CollOneSided:
			// Pipelined chunk forwarding down the binomial tree. The
			// root deposits every chunk into each of its depth children's
			// windows in turn, the pipeline's slowest stage; then the last
			// chunk descends the tree, copied out and forwarded at every
			// level. An empty payload still runs one chunk.
			chunk := max(min(bytes, w.osChunk()), 1)
			chunks := max((bytes+chunk-1)/chunk, 1)
			ctl := w.collCtl()
			deposit := sim.RateDuration(bytes, w.collStreamBW(size, chunk, 2*chunk)) + time.Duration(chunks)*ctl
			return time.Duration(depth) * (deposit + c.modelWindowCopy(chunk) + ctl)
		default:
			// Store-and-forward binomial tree.
			return time.Duration(depth) * c.modelP2PMsg(bytes, size)
		}
	case collAllreduce:
		block := (bytes + int64(size) - 1) / int64(size)
		switch alg {
		case CollRecDbl:
			// Round m pairs rank me with me^m: half the ranks send m
			// downstream, the other half size-m.
			var d time.Duration
			for m := 1; m < 1<<depth; m <<= 1 {
				d += c.modelP2PMsg(bytes, size, m, size-m) + c.modelCombine(bytes)
			}
			return d
		case CollRing:
			return 2*time.Duration(steps)*c.modelP2PMsg(block, size, 1) +
				time.Duration(steps)*c.modelCombine(block)
		case CollOneSided:
			return 2*time.Duration(steps)*c.modelOSBlock(block, size, 1) +
				time.Duration(steps)*c.modelCombine(block)
		default:
			// Reduce to root, then broadcast: two tree traversals.
			return time.Duration(2*depth)*c.modelP2PMsg(bytes, size) +
				time.Duration(depth)*c.modelCombine(bytes)
		}
	case collAllgather, collAlltoall:
		// Step k of the pairwise exchange and of the one-sided window
		// exchange sends k downstream, every step of the allgather ring 1.
		// The window exchange issues its deposits back to back, each
		// block's notify and ack overlap the next deposit, and only the
		// last ack's flight shows.
		var d time.Duration
		if alg == CollOneSided {
			d = w.collCtl()
		}
		for k := 1; k < size; k++ {
			switch {
			case alg == CollOneSided:
				d += sim.RateDuration(perPeer, w.collStreamBW(size, perPeer, 2*perPeer, k)) + c.modelOSServe(perPeer)
			case kind == collAllgather:
				d += c.modelP2PMsg(perPeer, size, 1)
			default:
				d += c.modelP2PMsg(perPeer, size, k)
			}
		}
		return d
	default:
		return time.Duration(steps) * c.modelP2PMsg(bytes, size)
	}
}

// --- eligibility and selection ---

// collCandidates lists the algorithm families implemented for a kind, in
// fallback preference order (first entry = the always-available baseline).
func collCandidates(kind collKind) []CollAlg {
	switch kind {
	case collBcast:
		return []CollAlg{CollP2P, CollOneSided}
	case collAllreduce:
		return []CollAlg{CollP2P, CollRecDbl, CollRing, CollOneSided}
	case collAllgather, collAlltoall:
		return []CollAlg{CollP2P, CollOneSided}
	default:
		return []CollAlg{CollP2P}
	}
}

// collAlgOK reports whether an algorithm family is eligible for this call:
// implemented for the kind, and (for the one-sided family) the per-pair
// block fits the collective window slots.
func (c *Comm) collAlgOK(kind collKind, alg CollAlg, size int, bytes, perPeer int64) bool {
	if !slices.Contains(collCandidates(kind), alg) {
		return false
	}
	if alg != CollOneSided {
		return true
	}
	slot := c.rk.w.protocol().CollSlot
	if slot <= 0 {
		return false
	}
	switch kind {
	case collBcast:
		return true // chunked through the double-buffered slot halves
	case collAllreduce:
		block := (bytes + int64(size) - 1) / int64(size)
		return block <= c.rk.w.osChunk()
	default:
		return perPeer <= slot // one single-shot deposit per pair
	}
}

// chooseCollAlg picks the algorithm for one matched collective call:
// forced policies resolve statically, and under CollAuto the pick is the
// eligible candidate with the cheapest prior. The pick depends on the
// call's inputs only, which are equal on every member (see the top of this
// file).
func (c *Comm) chooseCollAlg(kind collKind, size int, bytes, perPeer int64) CollAlg {
	forced := c.rk.w.protocol().Coll
	if forced != CollAuto {
		if c.collAlgOK(kind, forced, size, bytes, perPeer) {
			return forced
		}
		// Forced but ineligible: the closest always-available family.
		if kind == collAllreduce && forced == CollOneSided {
			return CollRing
		}
		return CollP2P
	}
	best, bestCost := CollP2P, time.Duration(0)
	for i, a := range collCandidates(kind) {
		if !c.collAlgOK(kind, a, size, bytes, perPeer) {
			continue
		}
		if cost := c.modelColl(kind, a, size, bytes, perPeer); i == 0 || cost < bestCost {
			best, bestCost = a, cost
		}
	}
	return best
}

// --- per-call bookkeeping ---

// collOp tracks one collective call: its span and timing.
type collOp struct {
	c     *Comm
	kind  collKind
	start time.Duration
	sp    *obs.Span
}

// collBegin opens the bookkeeping for one collective call with the chosen
// algorithm: the decision counter, a trace span, and the timing baseline.
func (c *Comm) collBegin(kind collKind, alg CollAlg, bytes int64) collOp {
	w := c.rk.w
	w.stats.CollChosen[kind][alg]++
	sp := w.cfg.Tracer.StartSpan(c.p.Now(), c.rk.actor, "coll", kind.String())
	sp.SetBytes(bytes)
	if sp != nil {
		sp.SetDetail("alg %s", alg)
	}
	return collOp{c: c, kind: kind, start: c.p.Now(), sp: sp}
}

// end closes the call's span and latency histogram. It returns err for
// chaining.
func (op collOp) end(err error) error {
	c := op.c
	op.sp.End(c.p.Now())
	c.rk.w.met.collNS[op.kind].ObserveDuration(c.p.Now() - op.start)
	return err
}
