package mpi

import (
	"fmt"
	"slices"
	"time"

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
//   - revocation of the communicator: a member's arrival in the agreement
//     becomes visible to the others once its control write lands, and the
//     one-sided calls then refuse with CommRevokedError (Comm.Lost), so
//     a survivor that has not touched the dead rank joins at its next call;
//   - revocation of a rank: once survivors agree a rank is out, every
//     transport drops traffic to and from it, in-flight operations against
//     it complete with *RevokedRankError, and new operations fail fast
//     instead of waiting for watchdogs;
//   - Shrink: a deterministic agreement protocol among survivors
//     producing a new communicator over exactly the surviving ranks, with
//     fresh contexts and rebuilt collective-window state. It tolerates
//     further crashes mid-agreement by re-running the agreement from the
//     shrunken membership until a confirmation barrier over the survivors
//     succeeds.
//
// The agreement record of a Shrink call hangs off the communicator it is
// called on: every member's handle reaches the record its next call joins.
// In the modelled system it is a replicated register in SCI shared memory
// that each member writes with one remote store (the simulation bills the
// control writes), so the decision is uniform even if the member that
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

// CommRevokedError reports a call on a communicator that a member has
// started to shrink (Comm.Lost): the caller is alive and should join
// the agreement with Shrink. Unlike *RevokedRankError it does not tell the
// caller to stop.
type CommRevokedError struct {
	Ctx int // the communicator's context id
}

func (e CommRevokedError) Error() string {
	return fmt.Sprintf("mpi: communicator %d was revoked: a member entered Shrink", e.Ctx)
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

// shrinkRec is the replicated decision record of one matched Shrink call:
// each member's arrival, and — once a member's wait is satisfied and it
// seals the record — the agreed dead set, the survivors' group and the
// context pair of the shrunken communicator.
type shrinkRec struct {
	id      int64  // flight id: the digest of "mpi.shrink.<ctx>.<seq>"
	seq     int    // which call on its communicator, from 1
	arrived []bool // by member, in group order; made by the first arrival
	// visible is the instant the first arrival's control write lands, from
	// which the other members read the communicator as revoked.
	visible time.Duration
	sealed  bool
	dead    []int
	deadID  int64 // flight digest of dead
	group   []int // shared by every adopter's communicator, never written
	ctx     [2]int
	// next is the record of the next call on the same communicator, sub
	// the first record of the communicator this one seals.
	next, sub *shrinkRec
}

func newShrinkRec(ctx, seq int) *shrinkRec {
	return &shrinkRec{id: flight.DigestString(fmt.Sprintf("mpi.shrink.%d.%d", ctx, seq)), seq: seq}
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
// to enter the agreement; it runs out in WatchdogExpired, as every wait
// does. It is sized for the slowest legitimate entry path: a survivor that
// only notices the failure when its one-sided fence watchdog expires (with
// the typed loss), plus collective-scale slack. A fence fails fast on a
// peer already known dead, so that path is left to a crash that lands
// while the survivor already waits inside a fence round.
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
	var err error
	for attempt := 0; attempt <= len(c.groupRanks()); attempt++ {
		var next *Comm
		if next, err = cur.shrinkOnce(); err != nil {
			break
		}
		if err = next.confirmShrink(); err == nil {
			return next, nil
		}
		// A further crash surfaced during confirmation: agree again from
		// the already-shrunken membership.
		cur = next
	}
	c.rk.fl.Fail(c.p.Now(), flight.OpShrink, -1, err)
	return nil, err
}

// joinShrink returns the record this Shrink call joins and moves the
// communicator on to the record of its next call. Matched calls are the same
// call on every member, so every member joins the same record. The world
// communicator's first record is made by its first call; a shrunken
// communicator's by the agreement that made it.
func (c *Comm) joinShrink() *shrinkRec {
	rec := c.shrink
	if rec == nil {
		if c.w.shrink == nil {
			c.w.shrink = newShrinkRec(c.ctx, 1)
		}
		rec = c.w.shrink
	}
	if rec.next == nil {
		rec.next = newShrinkRec(c.ctx, rec.seq+1)
	}
	c.shrink = rec.next
	return rec
}

// shrinkOnce runs one round of the agreement on this communicator.
func (c *Comm) shrinkOnce() (*Comm, error) {
	w := c.rk.w
	p := c.p
	me := c.rk.id
	p.Sleep(callOverhead)
	if err := c.peerLost(me); err != nil {
		return nil, err
	}
	rec := c.joinShrink()
	c.probeSuspects()

	// Deposit this rank's arrival into the agreement record: in the
	// modelled system one posted control write per live member. The flight
	// record carries the suspicion it arrived with.
	members := c.groupRanks()
	if rec.arrived == nil {
		rec.arrived = make([]bool, len(members))
		rec.visible = p.Now() + w.slowCtl()
	}
	rec.arrived[c.Rank()] = true
	if fl := c.rk.fl; fl != nil {
		var snap []int
		for _, r := range members {
			if w.suspects[r] {
				snap = append(snap, r)
			}
		}
		fl.Record(p.Now(), flight.KShrinkDeposit, rec.id, int64(len(snap)), flight.DigestInts(snap), 0)
	}
	live := 0
	for _, r := range members {
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
		for i, r := range members {
			if !rec.arrived[i] && !w.suspects[r] {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if p.Now() >= deadline {
			// Shrink records it as its KError. The members were probed
			// alive at this instant: the expiry names none.
			return nil, c.WatchdogExpired()
		}
		p.Sleep(w.agreementPoll())
		c.probeSuspects()
		if err := c.peerLost(me); err != nil {
			return nil, err
		}
	}

	if !rec.sealed {
		// This member's wait was satisfied first: seal the decision. The dead
		// set is the suspect set among the members after a final probe:
		// suspicion is sticky and world-wide, so it holds whatever any member
		// suspected when it arrived, and the probe excludes a member that
		// arrived and then crashed before the seal. Sealing runs without
		// yielding (no virtual-time waits), so it is atomic with respect to
		// the other members.
		c.probeSuspects()
		rec.group = make([]int, 0, len(members))
		for _, r := range members {
			if w.suspects[r] {
				rec.dead = append(rec.dead, r)
			} else {
				rec.group = append(rec.group, r)
			}
		}
		rec.deadID = flight.DigestInts(rec.dead)
		u, coll := w.nextCtxPair()
		rec.ctx = [2]int{u, coll}
		rec.sub = newShrinkRec(u, 1)
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
	c.rk.fl.Record(p.Now(), flight.KShrinkAdopt, rec.id, int64(len(rec.dead)), rec.deadID, 0)
	if slices.Contains(rec.dead, me) {
		return nil, &RevokedRankError{Rank: me}
	}
	sub := c.derive()
	sub.group = rec.group
	sub.ctx, sub.collCtx = rec.ctx[0], rec.ctx[1]
	sub.shrink = rec.sub
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
