package mpi

import (
	"slices"
	"time"

	"scimpich/internal/obs"
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
// algorithm. Every input of the pick — kind, the communicator (where its
// members sit), payload, per-pair block and the world's configuration — is
// equal on all members of a matched call, and nothing is learned from
// earlier calls, so each member would compute the same pick by itself; the
// world keeps the last pick per kind, which the other members reuse.

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

// The prior of a call walks the family's own peer schedule (ringPeers,
// pairwisePeers, recDblPeer, binomialPeer: the functions the algorithms
// run) and prices every message of it on its own pair: member r's chain
// through step k ends at T(r,k) = max(T(r,k-1) + its own send,
// T(peer,k-1) + the message it takes from its peer), and the call at the
// latest chain. The price of a pair reads its transport
// from where its two members sit: an SCI pair streams under the ringlet
// and adapter load of the step's concurrent SCI transfers
// (sci.Interconnect.ShiftBW), a pair inside a node copies through its node
// bus shared with the step's other copies on it (shmem.Config.CopyCost).
// A shape enters the prior only through the members' placement.

// collSched names a family's peer schedule.
type collSched int

const (
	schedRing       collSched = iota // allgather ring, both ring allreduces
	schedPairwise                    // alltoall pairwise exchange
	schedRecDbl                      // recursive doubling
	schedBcastTree                   // binomial tree from member 0, top down
	schedReduceTree                  // the same tree bottom up
	schedChunkTree                   // the top-down tree once per chunk
)

// peers returns whom member r receives a message from and sends one to at
// step k of the schedule over size members, -1 for none.
func (s collSched) peers(r, k, size int) (from, to int) {
	from, to = -1, -1
	switch s {
	case schedRing:
		from, to = ringPeers(r, size)
	case schedPairwise:
		to, from = pairwisePeers(r, k+1, size)
	case schedRecDbl:
		peer, sends, recvs := recDblPeer(r, k, size)
		if recvs {
			from = peer
		}
		if sends {
			to = peer
		}
	case schedBcastTree, schedReduceTree, schedChunkTree:
		switch s {
		case schedReduceTree:
			k = ceilLog2(size) - 1 - k
		case schedChunkTree:
			k %= ceilLog2(size)
		}
		peer, parent := binomialPeer(r, k, size)
		if peer >= 0 && parent == (s != schedReduceTree) {
			from = peer
		} else if peer >= 0 {
			to = peer
		}
	}
	return from, to
}

// collEval is the evaluator's scratch, sized once per world at its first
// priced call: per member its node, the end of its chain before and after
// the step, and what the step's messages cost; per step the load it prices
// its pairs under and the transfer shape all its messages share.
type collEval struct {
	node       []int
	from, to   []int // the step's peers per member (collSched.peers)
	t, next    []time.Duration
	send, full []time.Duration // the step's messages: the sender's part by sender, the whole by receiver
	acked      []time.Duration // the window exchange's last ack per member
	dists      []int           // node distance of each of the step's SCI transfers
	out, in    []int           // per node: the step's SCI transfers leaving and entering it
	bus        []int           // per node: the step's copies on its bus
	chunk, ws  int64           // the step's transfer unit and source working set
	srcCap     float64         // the step's SCI stream rate before any load
	picks      [collKindCount]collPick
}

// collPick is the chooser's last pick for a kind, with the call it was
// made for: the communicator (its context names one group), its size and
// the payload.
type collPick struct {
	ctx, size      int
	bytes, perPeer int64
	alg            CollAlg
}

// collEval returns the world's evaluator scratch, its node table filled for
// this communicator's size members.
func (c *Comm) collEval(size int) *collEval {
	w := c.rk.w
	if w.eval == nil {
		nodes, n := w.cfg.Nodes, w.size
		w.eval = &collEval{
			node: make([]int, n), from: make([]int, n), to: make([]int, n),
			t: make([]time.Duration, n), next: make([]time.Duration, n),
			send: make([]time.Duration, n), full: make([]time.Duration, n), acked: make([]time.Duration, n),
			dists: make([]int, 0, n), out: make([]int, nodes), in: make([]int, nodes), bus: make([]int, nodes),
		}
	}
	ev := w.eval
	for r := 0; r < size; r++ {
		ev.node[r] = w.ranks[c.worldRank(r)].node
	}
	return ev
}

// load records the peers of step k and counts its transfers of n bytes
// each: an SCI transfer by its node distance and at both adapters; a copy
// inside a node on the node's bus, twice where the receiver's copy-out runs
// beside the next deposit (a rendezvous of several chunks); and a one-sided
// receiver's copy out of its own window on its bus too. It also sets the
// transfer shape the step's messages share: a one-sided block streams from
// a working set of twice its size (osDeposit), a rendezvous message in
// chunks.
func (c *Comm) load(ev *collEval, s collSched, k, steps, size int, n int64, oneSided bool) {
	w := c.rk.w
	ev.dists = ev.dists[:0]
	clear(ev.out)
	clear(ev.in)
	clear(ev.bus)
	ev.chunk, ev.ws = n, n
	switch {
	case oneSided:
		ev.ws = 2 * n
	case n > eagerMax:
		ev.chunk = min(w.protocol().RendezvousChunk, n)
	}
	ev.srcCap = w.cfg.SCI.Mem.EffectiveSourceBW(w.cfg.SCI.StreamWriteBW(ev.chunk), ev.ws)
	pipelined := !oneSided && n > ev.chunk
	handshake := !oneSided && n > eagerMax
	for r := 0; r < size; r++ {
		from, to := s.peers(r, k, size)
		ev.from[r], ev.to[r] = from, to
		dst := r
		if from < 0 && to < 0 && !handshake {
			// A member idle at this step sends its next message at once,
			// unless it has one to receive first or its receiver has to
			// answer a handshake.
			for j := k + 1; j < steps && from < 0 && to < 0; j++ {
				from, to = s.peers(r, j, size)
			}
			if to < 0 {
				continue
			}
			from, dst = r, to
		} else if from < 0 {
			continue
		}
		a, b := ev.node[from], ev.node[dst]
		switch {
		case a == b && pipelined:
			ev.bus[b] += 2
		case a == b || oneSided:
			ev.bus[b]++
		}
		if a != b {
			ev.dists = append(ev.dists, (b-a+w.cfg.Nodes)%w.cfg.Nodes)
			ev.out[a]++
			ev.in[b]++
		}
	}
}

// walk prices steps of schedule s over size members, each message n bytes
// (a one-sided block or a point-to-point message), combined by its receiver
// on the first combineSteps steps, and returns the latest chain. A message
// leaves when its sender's chain reaches the step; a rendezvous message,
// whose handshake needs the receiver, when both chains do. The receiver's
// chain goes on when it holds the message and its own send of the step is
// done. A combining step folds the message in where it lands, in the
// receiver's copy-out itself.
func (c *Comm) walk(s collSched, steps, size int, n int64, oneSided bool, combineSteps int) time.Duration {
	ev := c.collEval(size)
	clear(ev.t[:size])
	handshake := !oneSided && n > eagerMax
	for k := 0; k < steps; k++ {
		c.load(ev, s, k, steps, size, n, oneSided)
		fold := k < combineSteps
		for r := 0; r < size; r++ {
			if from := ev.from[r]; from >= 0 {
				ev.send[from], ev.full[r] = c.modelMsg(from, r, n, oneSided, fold, ev)
			}
		}
		for r := 0; r < size; r++ {
			from, to := ev.from[r], ev.to[r]
			t := ev.t[r]
			if to >= 0 {
				if handshake {
					t = max(t, ev.t[to])
				}
				t += ev.send[r]
			}
			if from >= 0 {
				start := ev.t[from]
				if handshake {
					start = max(start, ev.t[r])
				}
				t = max(t, start+ev.full[r])
			}
			ev.next[r] = t
		}
		ev.t, ev.next = ev.next, ev.t
	}
	return slices.Max(ev.t[:size])
}

// pairLink is the prior for member a putting a control packet to member b
// on its way (world.ring): its issue (an SCI write of the packet, or a
// store of the flag inside the node) and its flight (the posted SCI
// write's latency, or the flag's propagation inside the node). A deposit
// is made visible before its notify (sync): on SCI its check waits out the
// same flight, inside a node the store is visible at once.
func (c *Comm) pairLink(a, b int, ev *collEval) (issue, flight, sync time.Duration) {
	if ev.node[a] == ev.node[b] {
		return shmIssue, shmem.SignalLatency, 0
	}
	flight = c.rk.w.cfg.SCI.PIOWriteLatency
	return sciIssue, flight, flight
}

// pairWire is the prior for streaming n bytes from member a into member
// b's memory in the step's transfer shape under the step's load: on SCI as
// Mapping.WriteStream bills it (the adapter's stream rate for the chunk,
// capped by the local memory read of the source) at the ringlet's and the
// adapters' share, inside a node as copies through the bus. Nothing costs
// nothing.
func (c *Comm) pairWire(a, b int, n int64, ev *collEval) time.Duration {
	na, nb := ev.node[a], ev.node[b]
	switch {
	case n <= 0:
		return 0
	case na == nb:
		return ev.busCopies(c, nb, n, ev.ws)
	}
	bw := c.rk.w.ic.ShiftBW(ev.chunk, ev.srcCap, max(ev.out[na], ev.in[nb]), ev.dists...)
	return sim.RateDuration(n, bw)
}

// pairCopy is the prior for member b copying n bytes it received from
// member a out of its buffer in the step's chunks: a local copy of an SCI
// segment, or reads of shared memory through the node's bus. A copy that
// combines (fold) streams three chunks, the drain's and the accumulator's
// two.
func (c *Comm) pairCopy(a, b int, n int64, fold bool, ev *collEval) time.Duration {
	nb := ev.node[b]
	ws := foldWS(ev.chunk, fold)
	switch {
	case n <= 0:
		return 0
	case ev.node[a] != nb:
		return c.mem().CopyCost(n, ev.chunk, ws)
	}
	return ev.busCopies(c, nb, n, ws)
}

// busCopies is the prior for copying n bytes in the step's chunks from a
// working set of ws bytes through node's bus, shared with the step's other
// copies on it.
func (ev *collEval) busCopies(c *Comm, node int, n, ws int64) time.Duration {
	chunks := (n + ev.chunk - 1) / ev.chunk
	return time.Duration(chunks) * c.rk.w.cfg.Shm.CopyCost(ev.chunk, c.mem().CopyCost(ev.chunk, ev.chunk, ws), ev.bus[node])
}

// modelMsg prices one message of n bytes from member a to member b under
// the step's load: how long the sender is busy with it, and when the
// receiver holds it (fold: combined it as it drained), counted from the
// step's start.
func (c *Comm) modelMsg(a, b int, n int64, oneSided, fold bool, ev *collEval) (send, full time.Duration) {
	if oneSided {
		// The ring and the tree reuse a slot half every other block:
		// the sender first takes the ack that frees it.
		_, flight, _ := c.pairLink(a, b, ev)
		send = callOverhead + handlerLatency + c.modelOSDeposit(a, b, n, ev)
		return send, send + flight + c.modelOSTake(a, b, n, fold, ev)
	}
	return c.modelP2PMsg(a, b, n, fold, ev)
}

// modelP2PMsg is the prior for one point-to-point message of n bytes from
// member a to member b: protocol control traffic, wire time and the
// receiver's copy-out, mirroring what the short / eager / rendezvous paths
// bill for a contiguous message; the receiver's call posts its receive. A
// control message (ctl) is the call, the packet's issue and flight, and the
// receiver's dispatch; a short message's copy-out, folded or not, is in no
// prior. A message that folds combines in its copy-out, which a rendezvous
// pipelines with the deposits like the copy it replaces.
func (c *Comm) modelP2PMsg(a, b int, n int64, fold bool, ev *collEval) (send, full time.Duration) {
	issue, flight, sync := c.pairLink(a, b, ev)
	ctl := callOverhead + issue + flight + handlerLatency
	switch {
	case n <= shortMax:
		return callOverhead + issue, ctl + callOverhead
	case n <= eagerMax:
		// Slot deposit, made visible, its notify, the receiver's copy-out
		// and its credit return.
		wire := c.pairWire(a, b, n, ev)
		send = callOverhead + wire + sync + issue
		return send, ctl + callOverhead + sync + wire + c.pairCopy(a, b, n, fold, ev) + issue
	default:
		// Request + CTS handshake, chunked deposits with per-chunk acks,
		// and the receiver's per-chunk copy-out. The two chunk slots
		// pipeline deposit and copy-out: the slower stage sets the pace,
		// and one chunk of the faster one shows. Inside a node a pipeline
		// of several chunks runs both stages beside each other on the bus
		// for all but one chunk: its first deposit and its last copy-out
		// run beside only the step's other lone stages, at half the
		// step's bus load (see load). The last chunk's check (sync) shows;
		// the sender is busy until the last ack is back (no call of its own).
		chunks := (n + ev.chunk - 1) / ev.chunk
		wire, unpack := c.pairWire(a, b, n, ev), c.pairCopy(a, b, n, fold, ev)
		d := time.Duration(2+chunks)*ctl + sync + max(wire, unpack)
		if nb := ev.node[b]; ev.node[a] != nb || chunks == 1 {
			d += min(wire, unpack) / time.Duration(chunks)
		} else {
			load := ev.bus[nb]
			ev.bus[nb] = max(load/2, 1)
			lone := c.pairWire(a, b, ev.chunk, ev) + c.pairCopy(a, b, ev.chunk, fold, ev)
			ev.bus[nb] = load
			d += lone - max(wire, unpack)/time.Duration(chunks)
		}
		return d + issue + flight + handlerLatency, d
	}
}

// modelOSDeposit is the prior for member a depositing n bytes into member
// b's collective window (osDeposit) and notifying b: the one-sided
// families' block, which needs no handshake and no per-chunk protocol —
// their point.
func (c *Comm) modelOSDeposit(a, b int, n int64, ev *collEval) time.Duration {
	issue, _, sync := c.pairLink(a, b, ev)
	return c.pairWire(a, b, n, ev) + sync + callOverhead + issue
}

// modelOSTake is the prior for member b taking a block of n bytes that
// member a deposited and notified, once the notify arrived and b is free:
// the call that matches the notify and its dispatch at b's device, the copy
// out of b's window (a read of shared memory, billed through the node's
// bus; fold: three streams, the block's and the accumulator's two) and the
// ack.
func (c *Comm) modelOSTake(a, b int, n int64, fold bool, ev *collEval) time.Duration {
	ack, _, _ := c.pairLink(b, a, ev)
	copyOut := c.rk.w.cfg.Shm.CopyCost(n, c.mem().CopyCost(n, n, foldWS(n, fold)), ev.bus[ev.node[b]])
	return callOverhead + handlerLatency + copyOut + callOverhead + ack
}

// modelExchange is the prior for the one-sided window exchange
// (osExchange) of n-byte blocks: every member deposits its blocks in the
// pairwise order back to back, each made visible and notified; then takes
// the blocks in the same order, each once its notify arrived and its
// device served the ack of the member's block before (modelOSTake); and
// last waits for the ack of its own last block. It prices each message as
// walk does; walk's recurrence cannot hold it, because there a member's
// chain is one sequence, each send after the receive of the step before,
// while here a member's deposits all run ahead of its takes, and a take
// waits on its sender's deposits so far, not on the sender's chain.
func (c *Comm) modelExchange(size int, n int64) time.Duration {
	ev := c.collEval(size)
	got, sent, acked := ev.t[:size], ev.next[:size], ev.acked[:size]
	clear(got)
	clear(acked)
	for pass := 0; pass < 2; pass++ {
		// The first pass sums each member's deposits; the second walks
		// them again for the instant each notify leaves.
		clear(sent)
		for k := 0; k < size-1; k++ {
			c.load(ev, schedPairwise, k, size-1, size, n, true)
			for r := 0; r < size; r++ {
				to, _ := pairwisePeers(r, k+1, size)
				sent[r] += c.modelOSDeposit(r, to, n, ev)
			}
			if pass == 0 {
				continue
			}
			for r := 0; r < size; r++ {
				_, from := pairwisePeers(r, k+1, size)
				_, flight, _ := c.pairLink(from, r, ev)
				notify := sent[from] + flight
				if k > 0 {
					got[r] += handlerLatency // the ack of the block before
				}
				got[r] = max(got[r], notify) + c.modelOSTake(from, r, n, false, ev)
			}
			for r := 0; r < size; r++ {
				to, _ := pairwisePeers(r, k+1, size)
				_, flight, _ := c.pairLink(to, r, ev)
				acked[r] = max(acked[r], got[to]+flight+handlerLatency)
			}
		}
		if pass == 0 {
			copy(got, sent)
		}
	}
	return max(slices.Max(got), slices.Max(acked))
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
	steps := size - 1
	switch kind {
	case collBcast:
		if alg == CollOneSided {
			// The tree once per chunk, each chunk forwarded as it lands.
			// An empty payload still runs one chunk.
			chunk := max(min(bytes, c.rk.w.osChunk()), 1)
			chunks := max(int((bytes+chunk-1)/chunk), 1)
			return c.walk(schedChunkTree, chunks*depth, size, chunk, true, 0)
		}
		return c.walk(schedBcastTree, depth, size, bytes, false, 0)
	case collAllreduce:
		block := (bytes + int64(size) - 1) / int64(size)
		switch alg {
		case CollRecDbl:
			return c.walk(schedRecDbl, recDblSteps(size), size, bytes, false, recDblSteps(size)-1)
		case CollRing:
			return c.walk(schedRing, 2*steps, size, block, false, steps)
		case CollOneSided:
			return c.walk(schedRing, 2*steps, size, block, true, steps)
		default:
			// Reduce to member 0, then broadcast: the tree both ways.
			return c.walk(schedReduceTree, depth, size, bytes, false, depth) +
				c.walk(schedBcastTree, depth, size, bytes, false, 0)
		}
	case collAllgather, collAlltoall:
		switch {
		case alg == CollOneSided:
			return c.modelExchange(size, perPeer)
		case kind == collAllgather:
			return c.walk(schedRing, steps, size, perPeer, false, 0)
		default:
			return c.walk(schedPairwise, steps, size, perPeer, false, 0)
		}
	default:
		return 0 // a kind with one family is never priced
	}
}

// --- eligibility and selection ---

// collFamilies lists the algorithm families implemented per kind, in
// fallback preference order (first entry = the always-available baseline).
var collFamilies = [collKindCount][]CollAlg{
	collBarrier:   {CollP2P},
	collBcast:     {CollP2P, CollOneSided},
	collReduce:    {CollP2P},
	collAllreduce: {CollP2P, CollRecDbl, CollRing, CollOneSided},
	collGather:    {CollP2P},
	collAllgather: {CollP2P, CollOneSided},
	collAlltoall:  {CollP2P, CollOneSided},
}

// collAlgOK reports whether an algorithm family is eligible for this call:
// implemented for the kind, and (for the one-sided family) the per-pair
// block fits the collective window slots.
func (c *Comm) collAlgOK(kind collKind, alg CollAlg, size int, bytes, perPeer int64) bool {
	if !slices.Contains(collFamilies[kind], alg) {
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
// eligible candidate with the cheapest prior; a kind with one eligible
// family prices nothing. The pick depends on the call's inputs only, which
// are equal on every member (see the top of this file), so the members
// after the first, and a repeated call, reuse it.
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
	eligible := 0
	for _, a := range collFamilies[kind] {
		if c.collAlgOK(kind, a, size, bytes, perPeer) {
			eligible++
		}
	}
	if eligible == 1 {
		return CollP2P
	}
	// Every member of the call asks with the same inputs, and a program
	// repeats its calls: the world keeps the last pick per kind.
	w := c.rk.w
	key := collPick{ctx: c.ctx, size: size, bytes: bytes, perPeer: perPeer}
	if w.eval != nil {
		if last := w.eval.picks[kind]; last.ctx == key.ctx && last.size == size && last.bytes == bytes && last.perPeer == perPeer {
			return last.alg
		}
	}
	best, bestCost := CollP2P, time.Duration(0)
	for i, a := range collFamilies[kind] {
		if !c.collAlgOK(kind, a, size, bytes, perPeer) {
			continue
		}
		if cost := c.modelColl(kind, a, size, bytes, perPeer); i == 0 || cost < bestCost {
			best, bestCost = a, cost
		}
	}
	key.alg = best
	w.eval.picks[kind] = key
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
