package osc

import (
	"fmt"
	"time"

	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// Synchronization (paper §4.1/§4.3): active target via fence or exposure /
// access epochs, passive target via lock/unlock. Accesses must stay inside
// an epoch; the library optimizes across the epoch boundary (store barriers
// are issued at the closing call, not per access).

// ErrSyncTimeout reports a synchronization call (Fence, Lock, Unlock) or a
// handler round-trip that waited longer than Config.SyncTimeout for a peer —
// typically because its node crashed while the call already waited, or a
// live peer never made the matching call. A fence does not wait out a peer
// the liveness view already shows dead: it fails at once (see Fence).
type ErrSyncTimeout struct {
	Op     string // "fence", "lock", "unlock" or a data operation
	Win    int
	Target int // locked target rank, or -1 for fence
	Waited time.Duration
}

func (e ErrSyncTimeout) Error() string {
	if e.Target >= 0 {
		return fmt.Sprintf("osc: %s on window %d timed out after %v waiting for rank %d",
			e.Op, e.Win, e.Waited, e.Target)
	}
	return fmt.Sprintf("osc: %s on window %d timed out after %v", e.Op, e.Win, e.Waited)
}

// Fence closes the current access epoch (completing all outstanding posted
// stores with a store barrier), synchronizes all ranks barrier-style, and
// opens the next epoch (MPI_Win_fence): every rank announces its arrival
// to all others and waits for the full round, numbered per window (the
// handler records which peers arrived; see fenceArrived). Before it
// announces anything, it fails at once on a peer that has not arrived and
// is known lost (lostPeer), so no peer can complete a round this rank
// failed, and the round is not used up. Waiting longer than
// Config.SyncTimeout (0: forever) for a peer returns an ErrSyncTimeout.
func (w *Win) Fence() error {
	w.stats.Fences++
	w.closeEpoch()
	w.syncViews()
	c := w.sys.c
	p := c.Proc()
	round := w.fenceRound + 1
	w.fl.Record(p.Now(), flight.KFenceEnter, int64(w.id), int64(round), 0, 0)
	if err := w.lostPeer(round); err != nil {
		w.fl.Fail(p.Now(), flight.OpFence, -1, err)
		return err
	}
	w.fenceRound = round
	me := c.Rank()
	for r := 0; r < c.Size(); r++ {
		if r != me {
			c.OSCNotify(c.GroupToWorld(r), int(reqFence), w.id, round, false)
		}
	}
	var waited time.Duration
	w.fenceWait = round
	for !w.fenceFull(round) { // a timed-out round may leave a stale wake
		if w.cfg.SyncTimeout <= 0 {
			p.Recv(w.fenceQ)
			continue
		}
		remaining := w.cfg.SyncTimeout - waited
		ok := remaining > 0
		if ok {
			before := p.Now()
			_, ok = p.RecvTimeout(w.fenceQ, remaining)
			waited += p.Now() - before
		}
		if !ok {
			w.stats.SyncTimeouts++
			err := ErrSyncTimeout{Op: "fence", Win: w.id, Target: -1, Waited: waited}
			w.fl.Fail(p.Now(), flight.OpFence, -1, err)
			return err
		}
	}
	w.fl.Record(p.Now(), flight.KFenceExit, int64(w.id), int64(round), int64(c.Size()-1), 0)
	w.ep = epochFence
	w.openEpoch("fence")
	w.resetPattern()
	return nil
}

// fenceArrived records, on the handler, that world rank src announced
// round, and wakes the rank once the round it waits for is full.
func (w *Win) fenceArrived(src, round int) {
	c := w.sys.c
	for g := range w.fenceSeen {
		if c.GroupToWorld(g) == src {
			w.fenceSeen[g] = round
			break
		}
	}
	if round == w.fenceWait && w.fenceFull(round) {
		sim.Post(w.fenceQ, nil)
	}
}

// fenceFull reports whether every peer announced round (or the next one).
func (w *Win) fenceFull(round int) bool {
	me := w.sys.c.Rank()
	for g, seen := range w.fenceSeen {
		if g != me && seen < round {
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
	p := w.sys.c.Proc()
	for r, v := range w.views {
		if v == nil || r == w.sys.c.Rank() || !v.Remote() || w.degraded[r] {
			continue
		}
		if err := v.Sync(p); err != nil {
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
// The notification costs one control message per origin.
func (w *Win) Post(group []int) {
	w.stats.Posts++
	c := w.sys.c
	for _, origin := range group {
		c.OSCNotify(c.GroupToWorld(origin), int(reqPost), w.id, 0, false)
	}
}

// Start opens an access epoch toward the targets in group, blocking until
// each has posted its exposure epoch (MPI_Win_start).
func (w *Win) Start(group []int) {
	if w.ep != epochNone {
		panic("osc: Start inside another access epoch")
	}
	p := w.sys.c.Proc()
	need := map[int]int{}
	for _, t := range group {
		need[w.sys.c.GroupToWorld(t)]++
	}
	for remaining := len(group); remaining > 0; {
		src := p.Recv(w.postQ).(int) // world rank
		if need[src] == 0 {
			// Stale post from a rank outside the group — e.g. a peer revoked
			// after it notified. Drop it; only expected posts count.
			w.fl.Record(p.Now(), flight.KPacketDrop, int64(w.id), int64(src), flight.DropStalePost, 0)
			continue
		}
		need[src]--
		remaining--
	}
	w.ep = epochStart
	w.openEpoch("start")
	w.resetPattern()
}

// Complete closes the access epoch: completes all transfers and notifies
// each target (MPI_Win_complete).
func (w *Win) Complete(group []int) {
	if w.ep != epochStart {
		panic("osc: Complete without Start")
	}
	w.closeEpoch()
	w.syncViews()
	c := w.sys.c
	for _, t := range group {
		c.OSCNotify(c.GroupToWorld(t), int(reqComplete), w.id, 0, false)
	}
	w.ep = epochNone
}

// Wait closes the exposure epoch, blocking until every origin in group has
// completed its accesses (MPI_Win_wait).
func (w *Win) Wait(group []int) {
	p := w.sys.c.Proc()
	need := map[int]int{}
	for _, o := range group {
		need[w.sys.c.GroupToWorld(o)]++
	}
	for remaining := len(group); remaining > 0; {
		src := p.Recv(w.completeQ).(int) // world rank
		if need[src] == 0 {
			// Stale complete from outside the group (revoked origin); drop it.
			w.fl.Record(p.Now(), flight.KPacketDrop, int64(w.id), int64(src), flight.DropStaleComplete, 0)
			continue
		}
		need[src]--
		remaining--
	}
}

// Lock opens a passive-target epoch with exclusive access to target's
// window (MPI_Win_lock). For windows in shared memory the lock is a
// shared-memory spinlock that does not involve the target's CPU; for
// private windows the handler arbitrates (with remote-interrupt latency).
// It polls with exponential backoff and gives up with an ErrSyncTimeout
// after Config.SyncTimeout. With SyncTimeout zero it waits without a bound,
// but each poll first returns the typed error of a crashed or revoked
// target; with a bound, a shared window's poll waits out a dead target
// node, which may be restored.
func (w *Win) Lock(target int) error {
	timeout := w.cfg.SyncTimeout
	if w.ep != epochNone {
		panic("osc: Lock inside another access epoch")
	}
	w.stats.Locks++
	p := w.sys.c.Proc()
	var waited time.Duration
	for backoff := 5 * time.Microsecond; ; backoff = min(2*backoff, 160*time.Microsecond) {
		var err error
		if timeout <= 0 {
			err = w.lostTarget(target)
		}
		start := p.Now()
		if err == nil && w.tryLock(target, timeout-waited) {
			break
		}
		waited += p.Now() - start
		if err == nil && timeout > 0 && waited >= timeout {
			w.stats.SyncTimeouts++
			err = ErrSyncTimeout{Op: "lock", Win: w.id, Target: target, Waited: waited}
		}
		if err != nil {
			w.fl.Fail(p.Now(), flight.OpLock, w.sys.c.GroupToWorld(target), err)
			return err
		}
		sleep := backoff
		if timeout > 0 {
			sleep = min(sleep, timeout-waited)
		}
		p.Sleep(sleep)
		waited += sleep
	}
	w.ep = epochLock
	w.lockHeld = target
	w.openEpoch("lock")
	w.resetPattern()
	return nil
}

// tryLock polls target's lock once: the shared-memory lock of a live node,
// or the handler of a private window, whose reply it waits for up to
// timeout (not positive: for ever).
func (w *Win) tryLock(target int, timeout time.Duration) bool {
	c := w.sys.c
	world := c.GroupToWorld(target)
	if !w.isShared[target] {
		ok, err := w.sys.call(world, oscReq{kind: reqLockTry, win: w.id}, true, timeout)
		return err == nil && ok
	}
	if !c.World().NodeAlive(world) {
		return false
	}
	if target != c.Rank() {
		c.Proc().Sleep(c.World().LockLatency(world, c.WorldRank()))
	}
	return w.sharedLocks[target].TryLock()
}

// Unlock closes the passive-target epoch: completes all transfers to the
// target, then releases the lock (MPI_Win_unlock). The epoch ends here
// whatever the result. A target known lost fails at once with lostTarget's
// error; a private window's release is a handler round-trip bounded by
// Config.SyncTimeout, with oscRPC's errors. A shared window's lock word is
// released even when its node is lost, so a restored node's lock is free.
func (w *Win) Unlock(target int) error {
	if w.ep != epochLock || w.lockHeld != target {
		panic("osc: Unlock without matching Lock")
	}
	c := w.sys.c
	p := c.Proc()
	w.closeEpoch()
	w.syncViews()
	w.ep = epochNone
	w.lockHeld = -1
	err := w.lostTarget(target)
	switch {
	case w.isShared[target]:
		if err == nil && target != c.Rank() {
			p.Sleep(c.World().LockLatency(c.GroupToWorld(target), c.WorldRank()) / 2)
		}
		p.Unlock(w.sharedLocks[target])
	case err == nil:
		err = w.oscRPC("unlock", target, oscReq{kind: reqUnlock, win: w.id}, true)
	}
	w.fail(flight.OpUnlock, target, err)
	return err
}
