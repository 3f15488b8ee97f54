package mpi

import (
	"fmt"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// Elastic worlds (ULFM-style shrink-to-survivors recovery). A fault plan
// can crash nodes mid-run; this file turns that from a job-killing event
// into a recoverable one:
//
//   - a failure detector over the liveness ground truth (NodeAlive) with a
//     sticky per-rank suspicion set — once a rank has been observed dead it
//     stays suspected, even if the fault plan later restores its node;
//   - revocation: once survivors agree a rank is out, every transport
//     drops traffic to and from it, in-flight operations against it
//     complete with *RevokedRankError, and new operations fail fast
//     instead of waiting for watchdogs;
//   - Shrink: a deterministic agreement protocol among survivors
//     producing a new communicator over exactly the surviving ranks, with
//     fresh contexts and rebuilt collective-window state. It tolerates
//     further crashes mid-agreement by re-running the agreement from the
//     shrunken membership until a confirmation barrier over the survivors
//     succeeds.
//
// The agreement record is shared World state: in the modelled system it is
// a replicated register every member deposits into (the simulation bills
// the control writes), so the decision is uniform even if the member that
// sealed it crashes immediately afterwards. Determinism per fault seed
// follows from the deterministic simulation: same seed, same schedule,
// same survivor set.

// tagShrink is the tag space of the shrink confirmation barrier.
const tagShrink = 17 << 20

// RevokedRankError reports an operation against (or by) a rank that a
// completed shrink agreement excluded from the world. Unlike a plain
// connection loss it is permanent: a restored node does not clear it.
type RevokedRankError struct {
	Rank int
}

func (e *RevokedRankError) Error() string {
	return fmt.Sprintf("mpi: rank %d was revoked by a shrink agreement", e.Rank)
}

// Suspect marks a world rank as suspected dead in the failure detector.
// Suspicion is sticky: it survives a fault-plan RestoreNode, so a node
// that crashes and comes back cannot rejoin a world that moved on.
func (w *World) Suspect(rank int) {
	if !w.suspects[rank] {
		w.ranks[rank].fl.Record(w.host.Now(), flight.KSuspect, int64(rank), 0, 0, 0)
	}
	w.suspects[rank] = true
}

// RankRevoked reports whether a completed shrink agreement excluded the
// world rank. Layered libraries (one-sided windows, rmem) use it to fail
// operations against revoked targets fast.
func (w *World) RankRevoked(rank int) bool { return w.revoked[rank] }

// NodeOf returns the cluster node a world rank runs on.
func (w *World) NodeOf(rank int) int { return w.ranks[rank].node }

// probeSuspects runs one failure-detector sweep over the communicator's
// members: every member whose node is down joins the sticky suspect set.
func (c *Comm) probeSuspects() {
	for _, r := range c.groupRanks() {
		if !c.w.NodeAlive(r) {
			c.w.Suspect(r)
		}
	}
}

// revokeRank excludes a world rank after a shrink agreement: every
// transport drops its traffic (see World.ring), and every other rank's
// device fails its in-flight operations against the rank — posted receives
// bound to it and rendezvous transfers mid-flight complete with
// *RevokedRankError immediately instead of waiting for watchdogs.
func (w *World) revokeRank(p *sim.Proc, r int) {
	if w.revoked[r] {
		return
	}
	w.revoked[r] = true
	w.suspects[r] = true
	w.ranks[r].fl.Record(p.Now(), flight.KRevoke, int64(r), 0, 0, 0)
	err := &RevokedRankError{Rank: r}
	for _, rk := range w.ranks {
		if rk.id == r {
			continue
		}
		rk.dev.failFrom(r, err)
	}
}

// resetCollState drops the lazily built collective windows and view
// matrices after a shrink. The algorithms rebuild them over
// the surviving membership on next use; every survivor is inside the
// agreement when this runs, so no collective is in flight. The abandoned
// segments stay exported but unread — stale deposits by a restored node
// land in memory nobody looks at.
func (w *World) resetCollState() {
	w.collWins = nil
	w.collViews = nil
}

// shrinkRec is the replicated decision record of one matched Shrink
// call: the per-member suspicion snapshots, and — once a member's wait is
// satisfied and it seals the record — the agreed dead set and the context
// pair of the shrunken communicator.
type shrinkRec struct {
	deposits map[int][]int // member world rank -> its suspicion snapshot
	sealed   bool
	dead     []int
	ctx      [2]int
}

func (w *World) shrinkRec(key string) *shrinkRec {
	if w.shrinkRecs == nil {
		w.shrinkRecs = make(map[string]*shrinkRec)
	}
	rec, ok := w.shrinkRecs[key]
	if !ok {
		rec = &shrinkRec{deposits: make(map[int][]int)}
		w.shrinkRecs[key] = rec
	}
	return rec
}

// suspectSnapshot returns this rank's current suspicion set restricted to
// the communicator's members.
func (c *Comm) suspectSnapshot() []int {
	var out []int
	for _, r := range c.groupRanks() {
		if c.w.suspects[r] {
			out = append(out, r)
		}
	}
	return out
}

// agreementPoll is the interval at which a member waiting for deposits
// re-reads the agreement record and re-probes liveness.
func (w *World) agreementPoll() time.Duration {
	d := 8 * w.slowCtl()
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// agreementDeadline bounds a member's total wait for the other survivors
// to enter the agreement. It is sized for the slowest legitimate entry
// path: a survivor that only notices the failure when its one-sided fence
// watchdog expires, plus collective-scale slack.
func (w *World) agreementDeadline() time.Duration {
	return w.ScaledSyncTimeout() + 4*w.ScaledCollTimeout()
}

// Shrink is the survivors' recovery collective: every live member
// of the communicator calls it after observing a failure, and each
// receives a new communicator over exactly the agreed surviving ranks,
// with fresh contexts and rebuilt collective state. A caller whose own
// rank is dead or revoked receives *RevokedRankError.
//
// The agreement tolerates further crashes while it runs: after the
// survivors decide a dead set, a confirmation barrier (bounded by the
// scaled collective watchdog even when CollTimeout is 0) validates that
// the agreed membership is actually alive; if it fails, the agreement
// re-runs from the already-shrunken communicator. A member that deposits
// its snapshot and then crashes may still land in the decided membership —
// the next collective on the shrunken communicator fails fast and the
// caller shrinks again, the usual ULFM contract.
func (c *Comm) Shrink() (*Comm, error) {
	cur := c
	for attempt := 0; attempt <= len(c.groupRanks()); attempt++ {
		next, err := cur.shrinkOnce()
		if err != nil {
			c.rk.fl.Fail(c.p.Now(), flight.OpShrink, -1, err)
			return nil, err
		}
		if err := next.confirmShrink(); err == nil {
			return next, nil
		}
		// A further crash surfaced during confirmation: agree again from
		// the already-shrunken membership.
		cur = next
	}
	err := &fault.Error{Kind: fault.Timeout, From: c.rk.id, To: -1, At: c.p.Now()}
	c.rk.fl.Fail(c.p.Now(), flight.OpShrink, -1, err)
	return nil, err
}

// shrinkOnce runs one round of the agreement on this communicator.
func (c *Comm) shrinkOnce() (*Comm, error) {
	w := c.rk.w
	p := c.p
	me := c.rk.id
	p.Sleep(callOverhead)
	if w.revoked[me] || !w.NodeAlive(me) {
		return nil, &RevokedRankError{Rank: me}
	}
	key := fmt.Sprintf("mpi.shrink.%d.%d", c.ctx, w.callSeq(c.ctx, me))
	agreeID := flight.DigestString(key)
	rec := w.shrinkRec(key)
	c.probeSuspects()

	// Deposit this rank's suspicion snapshot into the agreement record: in
	// the modelled system one posted control write per live member.
	rec.deposits[me] = c.suspectSnapshot()
	c.rk.fl.Record(p.Now(), flight.KShrinkDeposit, agreeID,
		int64(len(rec.deposits[me])), flight.DigestInts(rec.deposits[me]), 0)
	live := 0
	for _, r := range c.groupRanks() {
		if r != me && !w.suspects[r] {
			live++
		}
	}
	p.Sleep(time.Duration(live) * w.slowCtl())

	// Wait until every member this rank does not suspect has deposited (or
	// another member has sealed the decision). Each poll re-runs the
	// failure detector, so a member that crashes mid-agreement moves to
	// the suspect set instead of being waited on forever; a live member
	// that never arrives trips the agreement deadline.
	deadline := p.Now() + w.agreementDeadline()
	for !rec.sealed {
		missing := 0
		for _, r := range c.groupRanks() {
			if r == me || w.suspects[r] {
				continue
			}
			if _, ok := rec.deposits[r]; !ok {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if p.Now() >= deadline {
			// Shrink records the error as its flight KError.
			return nil, &fault.Error{Kind: fault.Timeout, From: me, To: -1, At: p.Now()}
		}
		p.Sleep(w.agreementPoll())
		c.probeSuspects()
		if w.revoked[me] || !w.NodeAlive(me) {
			return nil, &RevokedRankError{Rank: me}
		}
	}

	if !rec.sealed {
		// This member's wait was satisfied first: seal the decision as the
		// union of every deposited snapshot plus a final probe, so a member
		// that deposited and then crashed is still excluded when the crash
		// precedes the seal. Sealing runs without yielding (no virtual-time
		// waits), so it is atomic with respect to the other members.
		c.probeSuspects()
		dead := map[int]bool{}
		for _, r := range c.groupRanks() {
			if w.suspects[r] {
				dead[r] = true
			}
		}
		for _, snap := range rec.deposits {
			for _, r := range snap {
				dead[r] = true
			}
		}
		for _, r := range c.groupRanks() {
			if dead[r] {
				rec.dead = append(rec.dead, r)
			}
		}
		u, coll := w.nextCtxPair()
		rec.ctx = [2]int{u, coll}
		rec.sealed = true
		for _, r := range rec.dead {
			w.revokeRank(p, r)
		}
		w.resetCollState()
	}

	// Adopt the sealed decision. The adoption digest is what the
	// post-mortem agreement checker compares across members: any two
	// members of the same agreement adopting different dead sets is a
	// split-brain.
	c.rk.fl.Record(p.Now(), flight.KShrinkAdopt, agreeID,
		int64(len(rec.dead)), flight.DigestInts(rec.dead), 0)
	for _, r := range rec.dead {
		if r == me {
			return nil, &RevokedRankError{Rank: me}
		}
	}
	survivors := make([]int, 0, len(c.groupRanks()))
	for _, r := range c.groupRanks() {
		excluded := false
		for _, d := range rec.dead {
			if d == r {
				excluded = true
				break
			}
		}
		if !excluded {
			survivors = append(survivors, r)
		}
	}
	sub := c.derive()
	sub.group = survivors
	sub.ctx, sub.collCtx = rec.ctx[0], rec.ctx[1]
	return sub, nil
}

// confirmShrink validates the agreed membership with a dissemination
// barrier over the shrunken communicator. Every wait is bounded by the
// scaled collective watchdog regardless of the configured CollTimeout:
// the agreement must detect a further crash even in runs that otherwise
// wait forever. It is not a collective call of its own (no collBegin), so
// it publishes no collective metric.
func (c *Comm) confirmShrink() error {
	return c.collective().barrierDissemination(tagShrink, c.rk.w.ScaledCollTimeout())
}
