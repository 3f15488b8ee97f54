package flight

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The post-mortem analyzer. Analyze matches the per-actor windows of a
// dump into a happens-before graph (send↔recv match keys, rendezvous
// reqIDs, fence rounds, put→delivery), assigns Lamport clocks, and runs
// the invariant checkers over the graph to produce a ranked anomaly
// report. Everything is derived from the dump alone so the analysis is as
// reproducible as the dump itself.

// EventRef names one event inside a dump: the actor and the index into
// that actor's Events slice.
type EventRef struct {
	Actor string `json:"actor"`
	Index int    `json:"index"`
}

// Anomaly is one invariant violation, ranked by Severity (higher is
// worse; 100 means the checker identified an injected fault as the root
// cause). Actor is the blamed actor ("" when no single actor is at
// fault).
type Anomaly struct {
	Check    string     `json:"check"`
	Severity int        `json:"severity"`
	Actor    string     `json:"actor,omitempty"`
	Summary  string     `json:"summary"`
	Evidence []EventRef `json:"evidence,omitempty"`
}

// Report is the analyzer's output: anomalies ranked most-severe first,
// per-event Lamport clocks (aligned with the dump's Events slices), and
// the causal chain terminating at the first recorded failure.
type Report struct {
	Anomalies []Anomaly
	// Clocks[actor][i] is the Lamport clock of d.Actor(actor).Events[i].
	Clocks map[string][]int64
	// Chain walks the critical happens-before path backwards from the
	// failure event, oldest first.
	Chain []EventRef
}

// node is one dump event plus its graph context.
type node struct {
	actor string
	rank  int // world rank parsed from the actor name, -1 otherwise
	idx   int
	ev    DumpEvent
	k     Kind
	clock int64
	prev  *node   // previous event of the same actor
	preds []*node // cross-actor happens-before predecessors
}

func (n *node) ref() EventRef { return EventRef{Actor: n.actor, Index: n.idx} }

type analysis struct {
	d       *Dump
	nodes   []*node // global (At, Seq) order
	byActor map[string][]*node
	// rank topology (from the "topology" meta ring and actor names)
	actorOfRank map[int]string
	nodeOfRank  map[int]int64
	nodeDown    map[int64]*node // node id -> its first KNodeDown
}

// Analyze builds the happens-before graph of a dump and runs every
// invariant checker.
func Analyze(d *Dump) *Report {
	a := build(d)
	a.link()
	a.clocks()
	rep := &Report{Clocks: make(map[string][]int64, len(a.byActor))}
	for actor, ns := range a.byActor {
		cs := make([]int64, len(ns))
		for i, n := range ns {
			cs[i] = n.clock
		}
		rep.Clocks[actor] = cs
	}
	rep.Anomalies = append(rep.Anomalies, a.checkFenceStall()...)
	rep.Anomalies = append(rep.Anomalies, a.checkAgreement()...)
	rep.Anomalies = append(rep.Anomalies, a.checkRendezvous()...)
	rep.Anomalies = append(rep.Anomalies, a.checkEpochMonotonic()...)
	rep.Anomalies = append(rep.Anomalies, a.checkSplitFence()...)
	rep.Anomalies = append(rep.Anomalies, a.checkDurability()...)
	rep.Anomalies = append(rep.Anomalies, a.checkUnmatchedSends()...)
	sort.SliceStable(rep.Anomalies, func(i, j int) bool {
		if rep.Anomalies[i].Severity != rep.Anomalies[j].Severity {
			return rep.Anomalies[i].Severity > rep.Anomalies[j].Severity
		}
		return rep.Anomalies[i].Summary < rep.Anomalies[j].Summary
	})
	rep.Chain = a.chain()
	return rep
}

func rankOfActor(actor string) int {
	if !strings.HasPrefix(actor, "rank") {
		return -1
	}
	r, err := strconv.Atoi(actor[len("rank"):])
	if err != nil {
		return -1
	}
	return r
}

func build(d *Dump) *analysis {
	a := &analysis{
		d:           d,
		byActor:     make(map[string][]*node),
		actorOfRank: make(map[int]string),
		nodeOfRank:  make(map[int]int64),
		nodeDown:    make(map[int64]*node),
	}
	for ai := range d.Actors {
		ad := &d.Actors[ai]
		rank := rankOfActor(ad.Actor)
		ns := make([]*node, len(ad.Events))
		var prev *node
		for i, ev := range ad.Events {
			n := &node{actor: ad.Actor, rank: rank, idx: i, ev: ev, k: ev.KindOf(), prev: prev}
			ns[i] = n
			prev = n
			a.nodes = append(a.nodes, n)
			switch n.k {
			case KRankNode:
				a.actorOfRank[int(ev.A)] = fmt.Sprintf("rank%d", ev.A)
				a.nodeOfRank[int(ev.A)] = ev.B
			case KNodeDown:
				if _, seen := a.nodeDown[ev.A]; !seen {
					a.nodeDown[ev.A] = n
				}
			}
		}
		a.byActor[ad.Actor] = ns
	}
	sort.SliceStable(a.nodes, func(i, j int) bool {
		if a.nodes[i].ev.At != a.nodes[j].ev.At {
			return a.nodes[i].ev.At < a.nodes[j].ev.At
		}
		return a.nodes[i].ev.Seq < a.nodes[j].ev.Seq
	})
	return a
}

// windowStart is the earliest time at which the actor's window is
// complete: 0 when nothing was evicted, else the first retained event.
func (a *analysis) windowStart(actor string) int64 {
	ad := a.d.Actor(actor)
	if ad == nil || ad.Dropped == 0 || len(ad.Events) == 0 {
		return 0
	}
	return ad.Events[0].At
}

// link adds the cross-actor happens-before edges.
func (a *analysis) link() {
	a.linkSends()
	a.linkRendezvous()
	a.linkFences()
	a.linkPuts()
}

// linkSends pairs the i-th KSendPost with the i-th KRecvMatch per
// (src, dst, tag) — the runtime delivers in FIFO order per pair and tag.
// Pairs are restricted to the interval where both rings are complete, so
// ring eviction cannot shift the pairing.
func (a *analysis) linkSends() {
	type key struct {
		src, dst, tag int64
	}
	sends := make(map[key][]*node)
	recvs := make(map[key][]*node)
	for _, n := range a.nodes {
		switch n.k {
		case KSendPost:
			if n.rank >= 0 {
				sends[key{int64(n.rank), n.ev.A, n.ev.B}] = append(sends[key{int64(n.rank), n.ev.A, n.ev.B}], n)
			}
		case KRecvMatch:
			if n.rank >= 0 {
				recvs[key{n.ev.A, int64(n.rank), n.ev.B}] = append(recvs[key{n.ev.A, int64(n.rank), n.ev.B}], n)
			}
		}
	}
	for k, ss := range sends {
		rs := recvs[k]
		srcActor := fmt.Sprintf("rank%d", k.src)
		dstActor := fmt.Sprintf("rank%d", k.dst)
		start := a.windowStart(srcActor)
		if s := a.windowStart(dstActor); s > start {
			start = s
		}
		ss = filterAfter(ss, start)
		rs = filterAfter(rs, start)
		for i := 0; i < len(ss) && i < len(rs); i++ {
			rs[i].preds = append(rs[i].preds, ss[i])
		}
	}
}

func filterAfter(ns []*node, start int64) []*node {
	if start == 0 {
		return ns
	}
	out := ns[:0:0]
	for _, n := range ns {
		if n.ev.At >= start {
			out = append(out, n)
		}
	}
	return out
}

// linkRendezvous ties the chunked-transfer events together by reqID:
// sender start → receiver CTS, and receiver done → sender done.
func (a *analysis) linkRendezvous() {
	starts := make(map[int64]*node)
	rdone := make(map[int64]*node)
	sdone := make(map[int64]*node)
	for _, n := range a.nodes {
		switch n.k {
		case KRdvStart:
			starts[n.ev.B] = n
		case KRdvCTS:
			if s := starts[n.ev.B]; s != nil {
				n.preds = append(n.preds, s)
			}
		case KRdvDone:
			// The sender records its done after the receiver's final ack,
			// so the receiver-side done (the one whose actor differs from
			// the start's actor) precedes the sender-side one.
			if s := starts[n.ev.B]; s != nil && s.actor == n.actor {
				sdone[n.ev.B] = n
			} else {
				rdone[n.ev.B] = n
			}
		}
	}
	for id, sn := range sdone {
		if rn := rdone[id]; rn != nil {
			sn.preds = append(sn.preds, rn)
		}
	}
}

// linkFences makes every KFenceEnter of a (window, round) a predecessor
// of every KFenceExit of the same round: a fence exit waited on all
// participants by construction.
func (a *analysis) linkFences() {
	type key struct{ win, round int64 }
	enters := make(map[key][]*node)
	exits := make(map[key][]*node)
	for _, n := range a.nodes {
		switch n.k {
		case KFenceEnter:
			enters[key{n.ev.A, n.ev.B}] = append(enters[key{n.ev.A, n.ev.B}], n)
		case KFenceExit:
			exits[key{n.ev.A, n.ev.B}] = append(exits[key{n.ev.A, n.ev.B}], n)
		}
	}
	for k, exs := range exits {
		for _, ex := range exs {
			for _, en := range enters[k] {
				if en.actor != ex.actor {
					ex.preds = append(ex.preds, en)
				}
			}
		}
	}
}

// linkPuts models put→delivery: a one-sided put becomes visible at the
// target no later than the target's next fence exit on the same window.
func (a *analysis) linkPuts() {
	// Target actor -> its fence exits, in time order (a.nodes is sorted).
	exits := make(map[string][]*node)
	for _, n := range a.nodes {
		if n.k == KFenceExit {
			exits[n.actor] = append(exits[n.actor], n)
		}
	}
	for _, n := range a.nodes {
		if n.k != KPut {
			continue
		}
		target := fmt.Sprintf("rank%d", n.ev.A)
		for _, ex := range exits[target] {
			if ex.ev.A == n.ev.C && ex.ev.At > n.ev.At {
				ex.preds = append(ex.preds, n)
				break
			}
		}
	}
}

// clocks assigns Lamport clocks processing events in global (At, Seq)
// order; every cross edge points backwards in that order because effects
// never precede causes in virtual time.
func (a *analysis) clocks() {
	for _, n := range a.nodes {
		var c int64
		if n.prev != nil && n.prev.clock > c {
			c = n.prev.clock
		}
		for _, p := range n.preds {
			if p.clock > c {
				c = p.clock
			}
		}
		n.clock = c + 1
	}
}

// chain walks the critical happens-before path backwards from the first
// KError event (the failure that triggered the dump), oldest first.
func (a *analysis) chain() []EventRef {
	var fail *node
	for _, n := range a.nodes {
		if n.k == KError {
			fail = n
			break
		}
	}
	if fail == nil {
		return nil
	}
	var refs []EventRef
	for n := fail; n != nil && len(refs) < 25; {
		refs = append(refs, n.ref())
		next := n.prev
		for _, p := range n.preds {
			if next == nil || p.clock > next.clock {
				next = p
			}
		}
		n = next
	}
	for i, j := 0, len(refs)-1; i < j; i, j = i+1, j-1 {
		refs[i], refs[j] = refs[j], refs[i]
	}
	return refs
}

// nodeDownOf returns the KNodeDown of the rank's node if it crashed at or
// before t, else nil.
func (a *analysis) nodeDownOf(rank int, t int64) *node {
	nd, ok := a.nodeOfRank[rank]
	if !ok {
		return nil
	}
	if n := a.nodeDown[nd]; n != nil && n.ev.At <= t {
		return n
	}
	return nil
}

// crashedBefore reports whether the actor's node crashed at or before t,
// and when.
func (a *analysis) crashedBefore(rank int, t int64) (int64, bool) {
	if n := a.nodeDownOf(rank, t); n != nil {
		return n.ev.At, true
	}
	return 0, false
}

func (a *analysis) errorsOf(op Op) []*node {
	var out []*node
	for _, n := range a.nodes {
		if n.k == KError && Op(n.ev.A) == op {
			out = append(out, n)
		}
	}
	return out
}

// checkFenceStall attributes fence timeouts: for each OpFence error, find
// the round the failing rank was stuck in, and blame the participants
// that never entered that round or whose node had crashed — correlating
// with the injected node faults to name the root cause.
func (a *analysis) checkFenceStall() []Anomaly {
	var out []Anomaly
	blamed := make(map[string]bool)
	for _, e := range a.errorsOf(OpFence) {
		var enter *node
		for n := e.prev; n != nil; n = n.prev {
			if n.k == KFenceEnter {
				enter = n
				break
			}
		}
		if enter == nil {
			continue
		}
		win, round := enter.ev.A, enter.ev.B
		// Participants: every actor ever seen fencing this window.
		participants := make(map[string]*node) // actor -> its enter for this round (nil value means absent)
		for _, n := range a.nodes {
			if n.k == KFenceEnter && n.ev.A == win {
				if n.ev.B == round {
					participants[n.actor] = n
				} else if _, ok := participants[n.actor]; !ok {
					participants[n.actor] = nil
				}
			}
		}
		names := make([]string, 0, len(participants))
		for p := range participants {
			names = append(names, p)
		}
		sort.Strings(names)
		found := false
		for _, p := range names {
			if p == e.actor {
				continue
			}
			entered := participants[p] != nil
			crashT, down := a.crashedBefore(rankOfActor(p), e.ev.At)
			if entered && !down {
				continue
			}
			found = true
			key := fmt.Sprintf("fence-stall/%s/%d/%d", p, win, round)
			if blamed[key] {
				continue
			}
			blamed[key] = true
			an := Anomaly{Check: "fence-stall", Actor: p, Evidence: []EventRef{e.ref(), enter.ref()}}
			nd := a.nodeOfRank[rankOfActor(p)]
			switch {
			case down:
				an.Severity = 100
				an.Summary = fmt.Sprintf(
					"fence round %d on window %d stalled: %s held up the barrier — injected crash of node%d at %v is the root cause",
					round, win, p, nd, time.Duration(crashT))
			default:
				an.Severity = 85
				an.Summary = fmt.Sprintf(
					"fence round %d on window %d stalled: %s never entered the round (last seen in an earlier round)",
					round, win, p)
			}
			if en := participants[p]; en != nil {
				an.Evidence = append(an.Evidence, en.ref())
			}
			out = append(out, an)
		}
		if !found {
			out = append(out, Anomaly{
				Check: "fence-stall", Severity: 70,
				Summary: fmt.Sprintf(
					"fence round %d on window %d timed out on %s but every participant entered and no crash was recorded",
					round, win, e.actor),
				Evidence: []EventRef{e.ref(), enter.ref()},
			})
		}
	}
	return out
}

// checkAgreement verifies shrink agreements: every participant of an
// agreement must adopt the same dead-set digest (divergence is a
// split-brain), and a stalled agreement is attributed to crashed members.
func (a *analysis) checkAgreement() []Anomaly {
	var out []Anomaly
	adopts := make(map[int64][]*node)
	for _, n := range a.nodes {
		if n.k == KShrinkAdopt {
			adopts[n.ev.A] = append(adopts[n.ev.A], n)
		}
	}
	ids := make([]int64, 0, len(adopts))
	for id := range adopts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ns := adopts[id]
		digests := make(map[int64][]string)
		for _, n := range ns {
			digests[n.ev.C] = append(digests[n.ev.C], n.actor)
		}
		if len(digests) > 1 {
			var parts []string
			for dg, actors := range digests {
				sort.Strings(actors)
				parts = append(parts, fmt.Sprintf("%s adopted digest %x", strings.Join(actors, ","), dg))
			}
			sort.Strings(parts)
			an := Anomaly{
				Check: "agreement-divergence", Severity: 95,
				Summary: fmt.Sprintf("shrink agreement %x diverged: %s", id, strings.Join(parts, "; ")),
			}
			for _, n := range ns {
				an.Evidence = append(an.Evidence, n.ref())
			}
			out = append(out, an)
		}
	}
	// Stalled agreements: an OpShrink error, attributed to crashed members.
	for _, e := range a.errorsOf(OpShrink) {
		attributed := false
		ranks := make([]int, 0, len(a.nodeOfRank))
		for r := range a.nodeOfRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			if crashT, down := a.crashedBefore(r, e.ev.At); down {
				attributed = true
				out = append(out, Anomaly{
					Check: "agreement-stall", Severity: 100,
					Actor: fmt.Sprintf("rank%d", r),
					Summary: fmt.Sprintf(
						"shrink agreement stalled on %s: rank%d held up the decision — injected crash of node%d at %v is the root cause",
						e.actor, r, a.nodeOfRank[r], time.Duration(crashT)),
					Evidence: []EventRef{e.ref()},
				})
			}
		}
		if !attributed {
			out = append(out, Anomaly{
				Check: "agreement-stall", Severity: 75,
				Summary:  fmt.Sprintf("shrink agreement stalled on %s with no crash recorded", e.actor),
				Evidence: []EventRef{e.ref()},
			})
		}
	}
	return out
}

// checkRendezvous flags chunked transfers that started but neither
// completed nor were cancelled inside the dump window.
func (a *analysis) checkRendezvous() []Anomaly {
	done := make(map[int64]bool)
	chunks := make(map[int64]*node)
	for _, n := range a.nodes {
		switch n.k {
		case KRdvDone, KRdvCancel:
			done[n.ev.B] = true
		case KRdvChunk:
			chunks[n.ev.B] = n
		}
	}
	var out []Anomaly
	for _, n := range a.nodes {
		if n.k != KRdvStart || done[n.ev.B] {
			continue
		}
		peer := int(n.ev.A)
		received := int64(0)
		ev := []EventRef{n.ref()}
		if c := chunks[n.ev.B]; c != nil {
			received = c.ev.D
			ev = append(ev, c.ref())
		}
		an := Anomaly{Check: "stalled-rendezvous", Actor: n.actor, Evidence: ev}
		if crashT, crashed := a.crashedBefore(peer, maxAt(a.nodes)); crashed {
			an.Severity = 90
			an.Summary = fmt.Sprintf(
				"rendezvous %x %s->rank%d stalled after %d of %d bytes: rank%d's node crashed at %v",
				n.ev.B, n.actor, peer, received, n.ev.C, peer, time.Duration(crashT))
		} else {
			an.Severity = 70
			an.Summary = fmt.Sprintf(
				"rendezvous %x %s->rank%d stalled after %d of %d bytes with no crash recorded",
				n.ev.B, n.actor, peer, received, n.ev.C)
		}
		out = append(out, an)
	}
	return out
}

func maxAt(ns []*node) int64 {
	if len(ns) == 0 {
		return 0
	}
	return ns[len(ns)-1].ev.At
}

// checkEpochMonotonic pins the rmem epoch discipline: per actor, commit
// epochs strictly increase.
func (a *analysis) checkEpochMonotonic() []Anomaly {
	var out []Anomaly
	for _, actor := range slices.Sorted(maps.Keys(a.byActor)) {
		lastCommit := int64(-1)
		for _, n := range a.byActor[actor] {
			if n.k != KCommit {
				continue
			}
			if n.ev.A <= lastCommit {
				out = append(out, Anomaly{
					Check: "epoch-regression", Severity: 80, Actor: actor,
					Summary: fmt.Sprintf("%s committed epoch %d after %d — commit epochs must strictly increase",
						actor, n.ev.A, lastCommit),
					Evidence: []EventRef{n.ref()},
				})
			}
			lastCommit = n.ev.A
		}
	}
	return out
}

// checkSplitFence finds fence rounds a crash split: a node went down after
// the round's first enter, and the round completed on some actors but is
// still open on one whose node is up, so the survivors disagree on which
// round they are in.
func (a *analysis) checkSplitFence() []Anomaly {
	type round struct {
		key  [2]int64         // window, round
		open map[string]*node // actor -> its enter, until it exits
		done []string         // the actors that exited, with their exits in ev
		ev   []EventRef
		down *node // the first KNodeDown after the first enter
	}
	var rounds []*round
	byKey := make(map[[2]int64]*round)
	for _, n := range a.nodes {
		switch n.k {
		case KNodeDown:
			for _, r := range rounds {
				r.down = cmp.Or(r.down, n)
			}
		case KFenceEnter, KFenceExit:
			k := [2]int64{n.ev.A, n.ev.B}
			if byKey[k] == nil {
				byKey[k] = &round{key: k, open: make(map[string]*node)}
				rounds = append(rounds, byKey[k])
			}
			r := byKey[k]
			delete(r.open, n.actor)
			if n.k == KFenceEnter {
				r.open[n.actor] = n
			} else {
				r.done = append(r.done, n.actor)
				r.ev = append(r.ev, n.ref())
			}
		}
	}
	var out []Anomaly
	for _, r := range rounds {
		var open []string
		for _, actor := range slices.Sorted(maps.Keys(r.open)) {
			if en := r.open[actor]; a.nodeDownOf(en.rank, maxAt(a.nodes)) == nil {
				open = append(open, actor)
				r.ev = append(r.ev, en.ref())
			}
		}
		if len(r.done) == 0 || r.down == nil || len(open) == 0 {
			continue
		}
		out = append(out, Anomaly{Check: "split-fence", Severity: 93, Evidence: append(r.ev, r.down.ref()),
			Summary: fmt.Sprintf("fence round %d on window %d is split: completed on %s, still open on %s after node%d crashed at %v",
				r.key[1], r.key[0], strings.Join(r.done, ","), strings.Join(open, ","), r.down.ev.A, time.Duration(r.down.ev.At))})
	}
	return out
}

// checkDurability surfaces committed writes the verifier found missing,
// tying each back to the staging/replay event of the lost sequence.
func (a *analysis) checkDurability() []Anomaly {
	var out []Anomaly
	for _, n := range a.nodes {
		if n.k != KWriteLost {
			continue
		}
		an := Anomaly{
			Check: "lost-write", Severity: 92, Actor: n.actor,
			Summary: fmt.Sprintf("%s committed key %d at seq %d but the store now serves seq %d — durability violated",
				n.actor, n.ev.A, n.ev.B, n.ev.C),
			Evidence: []EventRef{n.ref()},
		}
		for _, m := range a.byActor[n.actor] {
			if (m.k == KPutStage || m.k == KReplay) && m.ev.A == n.ev.A && m.ev.B == n.ev.B {
				an.Evidence = append(an.Evidence, m.ref())
			}
		}
		out = append(out, an)
		if len(out) >= 16 {
			break
		}
	}
	return out
}

// checkUnmatchedSends counts sends without a matching receive per
// (src, dst, tag) inside the interval where both windows are complete.
func (a *analysis) checkUnmatchedSends() []Anomaly {
	type key struct {
		src, dst, tag int64
	}
	sends := make(map[key]int)
	recvs := make(map[key]int)
	lastSend := make(map[key]*node)
	for _, n := range a.nodes {
		switch n.k {
		case KSendPost:
			if n.rank < 0 {
				continue
			}
			k := key{int64(n.rank), n.ev.A, n.ev.B}
			start := a.windowStart(n.actor)
			if s := a.windowStart(fmt.Sprintf("rank%d", k.dst)); s > start {
				start = s
			}
			if n.ev.At >= start {
				sends[k]++
				lastSend[k] = n
			}
		case KRecvMatch:
			if n.rank < 0 {
				continue
			}
			k := key{n.ev.A, int64(n.rank), n.ev.B}
			start := a.windowStart(n.actor)
			if s := a.windowStart(fmt.Sprintf("rank%d", k.src)); s > start {
				start = s
			}
			if n.ev.At >= start {
				recvs[k]++
			}
		}
	}
	type miss struct {
		k    key
		diff int
	}
	var misses []miss
	for k, s := range sends {
		if d := s - recvs[k]; d > 0 {
			misses = append(misses, miss{k, d})
		}
	}
	sort.Slice(misses, func(i, j int) bool {
		if misses[i].diff != misses[j].diff {
			return misses[i].diff > misses[j].diff
		}
		return misses[i].k != misses[j].k && (misses[i].k.src < misses[j].k.src ||
			(misses[i].k.src == misses[j].k.src && (misses[i].k.dst < misses[j].k.dst ||
				(misses[i].k.dst == misses[j].k.dst && misses[i].k.tag < misses[j].k.tag))))
	})
	if len(misses) > 8 {
		misses = misses[:8]
	}
	var out []Anomaly
	for _, m := range misses {
		an := Anomaly{
			Check: "unmatched-send",
			Actor: fmt.Sprintf("rank%d", m.k.dst),
			Summary: fmt.Sprintf("%d send(s) rank%d->rank%d tag %d never matched a receive in the dump window",
				m.diff, m.k.src, m.k.dst, m.k.tag),
		}
		if _, down := a.crashedBefore(int(m.k.dst), maxAt(a.nodes)); down {
			an.Severity = 60
			an.Summary += fmt.Sprintf(" (rank%d's node crashed)", m.k.dst)
		} else {
			an.Severity = 30
		}
		if n := lastSend[m.k]; n != nil {
			an.Evidence = []EventRef{n.ref()}
		}
		out = append(out, an)
	}
	return out
}
