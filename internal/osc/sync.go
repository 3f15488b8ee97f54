package osc

import (
	"fmt"
	"time"

	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// Synchronization (paper §4.1/§4.3): active target via fence or exposure /
// access epochs, passive target via lock/unlock. Accesses must stay inside
// an epoch; the library optimizes across the epoch boundary (store barriers
// are issued at the closing call, not per access).

// Fence closes the current access epoch (completing all outstanding posted
// stores with a store barrier), synchronizes all ranks barrier-style, and
// opens the next epoch (MPI_Win_fence): every rank announces its arrival
// to all others and waits for theirs (sync); the rounds are counted per
// window. A rank that is itself lost (mpi.Comm.Lost answers its own
// *mpi.RevokedRankError) fails before its store barrier. After the barrier
// and before it announces anything, it fails at once on a peer that has
// not arrived and is known lost, or a communicator a member started to
// shrink (mpi.Comm.Lost), so no peer can complete a round this rank
// failed, and the round is not used up. Waiting longer than the window's
// bound (0: forever) for a peer ends in mpi.Comm.WatchdogExpired, as every
// mpi wait does.
func (w *Win) Fence() error {
	w.stats.Fences++
	w.closeEpoch()
	c := w.c
	if err, self := c.Lost().(*mpi.RevokedRankError); self {
		c.FlightRing().Fail(c.Proc().Now(), flight.OpFence, -1, err)
		return err
	}
	w.syncViews()
	round := int64(w.peers[c.Rank()].used[reqFence-reqPost]) + 1
	c.FlightRing().Record(c.Proc().Now(), flight.KFenceEnter, int64(w.id), round, 0, 0)
	if err := w.sync(reqFence, w.everyone, flight.OpFence); err != nil {
		return err
	}
	c.FlightRing().Record(c.Proc().Now(), flight.KFenceExit, int64(w.id), round, int64(c.Size()-1), 0)
	w.ep = epochFence
	w.openEpoch("fence")
	w.resetPattern()
	return nil
}

// sync is the synchronization of Fence, Start and Wait (op): it fails at
// once as mpi.Comm.Lost answers for the ranks of group with no unmatched
// notification of kind k (a peer whose notification arrived before it was
// lost fails nothing); then a fence counts its own arrival and announces it
// to every peer; then it waits for a notification of kind k from every rank
// of group (await). A failure is recorded under op.
func (w *Win) sync(k reqKind, group []int, op flight.Op) error {
	c := w.c
	err := c.Lost(w.pending(k, group)...)
	if err == nil {
		if k == reqFence {
			me := c.Rank()
			w.peers[me].seen[k-reqPost]++
			for r := range c.Size() {
				if r != me {
					c.OSCNotify(c.GroupToWorld(r), int(reqFence), w.id, false)
				}
			}
		}
		err = w.await(k, group)
	}
	if err != nil {
		c.FlightRing().Fail(c.Proc().Now(), op, -1, err)
	}
	return err
}

// await is the one wait of the synchronization calls: it blocks until every
// rank of group has a notification of kind k that no call matched yet; the
// handler wakes the rank once the group is complete (arrive). Waiting
// longer than the window's bound (0: forever) ends in
// mpi.Comm.WatchdogExpired over the ranks still missing. Whatever the
// result, it matches one notification of each rank, so a late one is never
// taken for the next call's.
func (w *Win) await(k reqKind, group []int) error {
	c := w.c
	p := c.Proc()
	var err error
	deadline := p.Now() + w.timeout
	w.waitKind, w.waitGroup = k, group
	for !w.arrived(k, group) { // a timed-out wait may leave a stale wake
		if w.timeout <= 0 {
			p.Recv(w.wake)
		} else if _, ok := p.RecvTimeout(w.wake, deadline-p.Now()); !ok {
			err = c.WatchdogExpired(w.pending(k, group)...)
			break
		}
	}
	w.waitGroup = nil
	for _, g := range group {
		w.peers[g].used[k-reqPost]++
	}
	return err
}

// arrive records, on the handler, a notification of kind k from world rank
// src, and wakes the rank once the group it waits for is complete.
func (w *Win) arrive(src int, k reqKind) {
	c := w.c
	for g := range w.peers {
		if c.GroupToWorld(g) == src {
			w.peers[g].seen[k-reqPost]++
			break
		}
	}
	if w.waitGroup != nil && w.waitKind == k && w.arrived(k, w.waitGroup) {
		sim.Post(w.wake, nil)
	}
}

// arrived reports whether every rank of group has a notification of kind k
// that no call matched yet.
func (w *Win) arrived(k reqKind, group []int) bool {
	for _, g := range group {
		if a := &w.peers[g]; a.seen[k-reqPost] <= a.used[k-reqPost] {
			return false
		}
	}
	return true
}

// syncViews guarantees delivery of every posted store this rank issued
// into the window (one store barrier covers all SCI traffic of the node).
// A view whose transfer check fails persistently is degraded to the
// emulation path and the next healthy view carries the barrier.
func (w *Win) syncViews() {
	p := w.c.Proc()
	for r := range w.peers {
		pr := &w.peers[r]
		if pr.view == nil || r == w.c.Rank() || !pr.view.Remote() || pr.degraded {
			continue
		}
		if err := pr.view.Sync(p); err != nil {
			w.degrade(r, err)
			continue // the next healthy view still flushes the adapter
		}
		return // one barrier flushes the whole adapter
	}
}

// resetPattern clears the write-combine stride estimator at epoch
// boundaries.
func (w *Win) resetPattern() {
	w.lastTarget = -1
}

// Post opens an exposure epoch for the origins in group (MPI_Win_post).
// The notification costs one control message per origin. A rank outside
// the group is an *mpi.ArgumentError (checkRanks).
func (w *Win) Post(group []int) error {
	if err := w.checkRanks("Post", group...); err != nil {
		return err
	}
	w.stats.Posts++
	c := w.c
	for _, origin := range group {
		c.OSCNotify(c.GroupToWorld(origin), int(reqPost), w.id, false)
	}
	return nil
}

// Start opens an access epoch toward the targets in group, blocking until
// each has posted its exposure epoch (MPI_Win_start); a post is kept for
// the first Start whose group holds its sender. It fails as Fence does
// (sync), and then opens no epoch; inside another access epoch, or with a
// rank outside the group, it is an *mpi.ArgumentError.
func (w *Win) Start(group []int) error {
	if w.ep != epochNone {
		return &mpi.ArgumentError{Call: "Start", Reason: "inside another access epoch"}
	}
	if err := w.checkRanks("Start", group...); err != nil {
		return err
	}
	if err := w.sync(reqPost, group, flight.OpStart); err != nil {
		return err
	}
	w.ep = epochStart
	w.openEpoch("start")
	w.resetPattern()
	return nil
}

// Complete closes the access epoch: completes all transfers and notifies
// each target (MPI_Win_complete). Without its Start, or with a rank outside
// the group, it is an *mpi.ArgumentError and ends no epoch.
func (w *Win) Complete(group []int) error {
	if w.ep != epochStart {
		return &mpi.ArgumentError{Call: "Complete", Reason: "without Start"}
	}
	if err := w.checkRanks("Complete", group...); err != nil {
		return err
	}
	w.closeEpoch()
	w.syncViews()
	c := w.c
	for _, t := range group {
		c.OSCNotify(c.GroupToWorld(t), int(reqComplete), w.id, false)
	}
	w.ep = epochNone
	return nil
}

// Wait closes the exposure epoch, blocking until every origin in group has
// completed its accesses (MPI_Win_wait). It fails as Fence does (sync); a
// rank outside the group is an *mpi.ArgumentError.
func (w *Win) Wait(group []int) error {
	if err := w.checkRanks("Wait", group...); err != nil {
		return err
	}
	return w.sync(reqComplete, group, flight.OpWait)
}

// Lock opens a passive-target epoch with exclusive access to target's
// window (MPI_Win_lock). For windows in shared memory the lock is a
// shared-memory spinlock that does not involve the target's CPU; for
// private windows the handler arbitrates (with remote-interrupt latency).
// It polls with exponential backoff, each poll after mpi.Comm.Lost for the
// target, so a lost rank or a communicator a member started to shrink fails
// at once, until one deadline, the window's bound after the call (0: none):
// a lock not taken, or a handler reply not received, by then ends in
// mpi.Comm.WatchdogExpired. Inside another access epoch, or toward a rank
// outside the group, it is an *mpi.ArgumentError.
func (w *Win) Lock(target int) error {
	if w.ep != epochNone {
		return &mpi.ArgumentError{Call: "Lock", Reason: "inside another access epoch"}
	}
	if err := w.checkRanks("Lock", target); err != nil {
		return err
	}
	w.stats.Locks++
	c := w.c
	p := c.Proc()
	deadline := p.Now() + w.timeout
	for backoff := 5 * time.Microsecond; ; backoff = min(2*backoff, 160*time.Microsecond) {
		err := c.Lost(c.GroupToWorld(target))
		if err == nil && w.timeout > 0 && p.Now() >= deadline {
			err = c.WatchdogExpired(c.GroupToWorld(target))
		}
		locked := false
		if err == nil {
			locked, err = w.tryLock(target, deadline)
		}
		if err != nil {
			w.fail(flight.OpLock, target, err)
			return err
		}
		if locked {
			break
		}
		sleep := backoff
		if w.timeout > 0 {
			sleep = min(sleep, deadline-p.Now())
		}
		p.Sleep(sleep)
	}
	w.ep = epochLock
	w.lockHeld = target
	w.openEpoch("lock")
	w.resetPattern()
	return nil
}

// tryLock polls target's lock once: the shared-memory lock of a node that
// Lock just found alive, or the handler of a private window, whose reply it
// waits for until deadline (with a bound) and whose expiry it returns.
func (w *Win) tryLock(target int, deadline time.Duration) (bool, error) {
	c := w.c
	world := c.GroupToWorld(target)
	if !w.peers[target].shared {
		var timeout time.Duration // 0: for ever
		if w.timeout > 0 {
			timeout = deadline - c.Proc().Now()
		}
		rep, err := w.sys.call(world, oscReq{kind: reqLockTry, win: w.id}, true, timeout)
		return rep == true, err
	}
	if target != c.Rank() {
		c.Proc().Sleep(c.World().LockLatency(world, c.WorldRank()))
	}
	return w.peers[target].lock.TryLock(), nil
}

// Unlock closes the passive-target epoch: completes all transfers to the
// target, then releases the lock (MPI_Win_unlock). The epoch ends here
// whatever the result. It fails at once as Lock does (mpi.Comm.Lost); a
// private window's release is a handler
// round-trip bounded by the window's bound, with oscRPC's errors. A shared
// window's lock word is released even when its node is lost, so a restored
// node's lock is free. Without its Lock it is an *mpi.ArgumentError and
// ends no epoch.
func (w *Win) Unlock(target int) error {
	if w.ep != epochLock || w.lockHeld != target {
		return &mpi.ArgumentError{Call: "Unlock", Reason: fmt.Sprintf("rank %d is not locked by this rank", target)}
	}
	c := w.c
	p := c.Proc()
	w.closeEpoch()
	w.syncViews()
	w.ep = epochNone
	w.lockHeld = -1
	err := c.Lost(c.GroupToWorld(target))
	switch {
	case w.peers[target].shared:
		if err == nil && target != c.Rank() {
			p.Sleep(c.World().LockLatency(c.GroupToWorld(target), c.WorldRank()) / 2)
		}
		p.Unlock(w.peers[target].lock)
	case err == nil:
		err = w.oscRPC(target, oscReq{kind: reqUnlock, win: w.id}, true)
	}
	w.fail(flight.OpUnlock, target, err)
	return err
}
