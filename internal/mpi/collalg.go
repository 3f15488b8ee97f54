package mpi

import (
	"time"

	"scimpich/internal/obs"
	"scimpich/internal/sci"
	"scimpich/internal/shmem"
	"scimpich/internal/sim"
)

// The collective algorithm engine: every collective call is dispatched
// through an algorithm chooser that ranks the implemented algorithm
// families per message size and communicator size. Like the rendezvous
// deposit chooser (pathsel.go) it starts from cost-model priors; unlike it,
// it refines them with an EWMA of achieved collective bandwidth as calls
// complete, because on their own the priors pick slower algorithms for
// some collectives (EXPERIMENTS.md, "Ablation: priors-only choosers").
//
// Correctness requires every member of a collective to pick the *same*
// algorithm. The EWMA state therefore lives on the World, and each matched
// call is decided once, keyed by the call's sequence number
// (World.callSeq): the first rank to enter call #k ranks the candidates
// against the live table and records the winner, the remaining members
// read that record, and completions fold into the live table only. The
// simulation is single-threaded, so the shared tables need no locking.

// CollAlg selects the algorithm family of a collective operation.
type CollAlg int

const (
	// CollAuto (the default) ranks the eligible algorithms per call from
	// the cost-model priors, refined by EWMA bandwidth feedback.
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

// collEWMATable holds the per-(collective, algorithm) EWMA of achieved
// bandwidth, bytes/sec (0 = never exercised).
type collEWMATable [collKindCount][collAlgCount]float64

// collCallKey identifies one matched collective call across its members.
type collCallKey struct {
	kind collKind
	ctx  int
	seq  int
}

// collDecision is the algorithm the first entrant of a matched call chose;
// left counts the members that have not read it yet.
type collDecision struct {
	alg  CollAlg
	left int
}

// observeColl folds one completed collective into the live feedback table.
func (w *World) observeColl(kind collKind, alg CollAlg, bytes int64, elapsed time.Duration) {
	if bytes <= 0 || elapsed <= 0 {
		return
	}
	w.collLive[kind][alg] = ewma(w.collLive[kind][alg], float64(bytes)/elapsed.Seconds())
}

// collEWMA is the blend factor of the live feedback table.
const collEWMA = 0.25

// ewma folds a bandwidth sample into the running estimate prev (0 = none
// yet).
func ewma(prev, sample float64) float64 {
	if prev > 0 {
		return float64(collEWMA*sample) + float64((1-collEWMA)*prev)
	}
	return sample
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

// traceSpan aliases the tracer's span type for the collOp bookkeeping.
type traceSpan = obs.Span

// collLinkBW is the prior for the sustained stream bandwidth between two
// ranks (bytes/sec) on the dominant transport.
func (w *World) collLinkBW() float64 {
	if w.ic != nil {
		return w.cfg.SCI.StreamWriteBW(w.protocol().RendezvousChunk)
	}
	return w.cfg.Shm.Mem.CopyBW(128 << 10)
}

// modelP2PMsg is the prior for one point-to-point message of n bytes:
// protocol control traffic plus wire time, mirroring what the short /
// eager / rendezvous paths bill.
func (c *Comm) modelP2PMsg(n int64) time.Duration {
	w := c.rk.w
	p := w.protocol()
	ctl := w.collCtl()
	wire := sim.RateDuration(n, w.collLinkBW())
	switch {
	case n <= shortMax:
		return ctl
	case n <= p.EagerMax:
		// Slot deposit plus the receiver's copy-out and credit return.
		return 2*ctl + wire + c.mem().CopyCost(n, n, 2*n)
	default:
		// Request + CTS handshake, chunked deposits with per-chunk acks,
		// and the receiver's per-chunk unpack.
		chunks := (n + p.RendezvousChunk - 1) / p.RendezvousChunk
		return time.Duration(2+chunks)*ctl + wire + c.mem().CopyCost(n, p.RendezvousChunk, 2*n)
	}
}

// modelOSBlock is the prior for one one-sided window exchange of n bytes:
// the deposit stream, a notify/ack pair, and the receiver's copy out of
// its window slot. No handshake and no per-chunk protocol below the slot
// size — the point of the one-sided algorithms.
func (c *Comm) modelOSBlock(n int64) time.Duration {
	w := c.rk.w
	chunk := w.osChunk()
	chunks := int64(1)
	if chunk > 0 {
		chunks = (n + chunk - 1) / chunk
	}
	return sim.RateDuration(n, w.collLinkBW()) +
		time.Duration(2*chunks)*w.collCtl() +
		c.mem().CopyCost(n, n, 2*n)
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
// perPeer the per-pair block (they coincide for bcast and allreduce).
func (c *Comm) modelColl(kind collKind, alg CollAlg, size int, bytes, perPeer int64) time.Duration {
	depth := ceilLog2(size)
	steps := int64(size - 1)
	switch kind {
	case collBcast:
		switch alg {
		case CollOneSided:
			// Pipelined chunk forwarding down the binomial tree: one wire
			// pass plus the pipeline fill over the tree depth.
			chunk := c.rk.w.osChunk()
			fill := time.Duration(depth) * sim.RateDuration(min64(bytes, chunk), c.rk.w.collLinkBW())
			return c.modelOSBlock(bytes) + fill
		default:
			// Store-and-forward binomial tree.
			return time.Duration(depth) * c.modelP2PMsg(bytes)
		}
	case collAllreduce:
		block := (bytes + int64(size) - 1) / int64(size)
		switch alg {
		case CollRecDbl:
			return time.Duration(depth) * (c.modelP2PMsg(bytes) + c.modelCombine(bytes))
		case CollRing:
			return 2*time.Duration(steps)*c.modelP2PMsg(block) +
				time.Duration(steps)*c.modelCombine(block)
		case CollOneSided:
			return 2*time.Duration(steps)*c.modelOSBlock(block) +
				time.Duration(steps)*c.modelCombine(block)
		default:
			// Reduce to root, then broadcast: two tree traversals.
			return time.Duration(2*depth)*c.modelP2PMsg(bytes) +
				time.Duration(depth)*c.modelCombine(bytes)
		}
	case collAllgather, collAlltoall:
		switch alg {
		case CollOneSided:
			// size-1 deposits issued back to back, receives overlap; a
			// dissemination barrier closes the epoch.
			return time.Duration(steps)*c.modelOSBlock(perPeer) +
				time.Duration(2*depth)*c.rk.w.collCtl()
		default:
			return time.Duration(steps) * c.modelP2PMsg(perPeer)
		}
	default:
		return time.Duration(steps) * c.modelP2PMsg(bytes)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
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
	found := false
	for _, a := range collCandidates(kind) {
		if a == alg {
			found = true
			break
		}
	}
	if !found {
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

// chooseCollAlg picks the algorithm for one matched collective call. All
// inputs are identical on every member, so every member picks the same
// algorithm: forced policies resolve statically, and under CollAuto the
// first member to enter the call ranks the candidates and the others read
// its decision.
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
	cands := collCandidates(kind)
	if len(cands) == 1 {
		return cands[0]
	}
	// Size, bytes and per-peer block are equal across the members of a
	// matched call, so the first entrant's ranking stands for all of them.
	w := c.rk.w
	key := collCallKey{kind, c.ctx, w.callSeq(seqCollAlg+seqOp(kind), c.ctx, c.rk.id)}
	d, ok := w.collCalls[key]
	if !ok {
		d = collDecision{alg: c.rankColl(kind, cands, size, bytes, perPeer), left: size}
	}
	if d.left--; d.left <= 0 {
		delete(w.collCalls, key)
	} else {
		if w.collCalls == nil {
			w.collCalls = make(map[collCallKey]collDecision)
		}
		w.collCalls[key] = d
	}
	return d.alg
}

// rankColl returns the cheapest eligible candidate: by achieved bandwidth
// where the live feedback table has one, by the cost-model prior otherwise.
func (c *Comm) rankColl(kind collKind, cands []CollAlg, size int, bytes, perPeer int64) CollAlg {
	best, bestCost := CollP2P, time.Duration(0)
	first := true
	for _, a := range cands {
		if !c.collAlgOK(kind, a, size, bytes, perPeer) {
			continue
		}
		cost := c.modelColl(kind, a, size, bytes, perPeer)
		if bw := c.rk.w.collLive[kind][a]; bw > 0 {
			cost = sim.RateDuration(bytes, bw)
		}
		if first || cost < bestCost {
			best, bestCost = a, cost
			first = false
		}
	}
	return best
}

// --- per-call bookkeeping ---

// collOp tracks one collective call: its span, timing, and the feedback
// fold at completion.
type collOp struct {
	c     *Comm
	kind  collKind
	alg   CollAlg
	bytes int64
	start time.Duration
	sp    *traceSpan
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
	return collOp{c: c, kind: kind, alg: alg, bytes: bytes, start: c.p.Now(), sp: sp}
}

// end closes the call: span, latency histogram, and (on success, in
// adaptive mode) the EWMA feedback fold. It returns err for chaining.
func (op collOp) end(err error) error {
	c := op.c
	w := c.rk.w
	op.sp.End(c.p.Now())
	w.met.collNS[op.kind].ObserveDuration(c.p.Now() - op.start)
	if err == nil && w.protocol().Coll == CollAuto {
		w.observeColl(op.kind, op.alg, op.bytes, c.p.Now()-op.start)
	}
	return err
}
