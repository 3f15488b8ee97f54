package osc

import (
	"fmt"
	"time"

	"scimpich/internal/obs/flight"
)

// Synchronization (paper §4.1/§4.3): active target via fence or exposure /
// access epochs, passive target via lock/unlock. Accesses must stay inside
// an epoch; the library optimizes across the epoch boundary (store barriers
// are issued at the closing call, not per access).

// ErrSyncTimeout reports a checked synchronization call (FenceChecked,
// LockChecked) that waited longer than Config.SyncTimeout for a peer —
// typically because its node crashed mid-epoch.
type ErrSyncTimeout struct {
	Op     string // "fence" or "lock"
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
// opens the next epoch (MPI_Win_fence).
//
// Fence and FenceChecked are two algorithms, not a wrapper and its body: a
// dissemination barrier (log2(P) rounds) here, an all-to-all announcement
// round that survives a dead peer there. They cost different virtual time,
// which the Figure 9 rows and the rmem rounds pin, so neither is written
// over the other.
func (w *Win) Fence() {
	w.stats.Fences++
	w.closeEpoch()
	w.syncViews()
	w.sys.c.Barrier()
	w.ep = epochFence
	w.openEpoch("fence")
	w.resetPattern()
}

// FenceChecked is Fence with a watchdog: instead of the collective barrier
// (which deadlocks if a peer crashed), every rank announces its fence
// arrival to all others and waits for the full round with a bounded wait.
// Waiting longer than Config.SyncTimeout for any peer returns an
// ErrSyncTimeout; with SyncTimeout zero it waits forever. All ranks of the
// window must use FenceChecked for the same fence (the announcement rounds
// are counted separately from plain Fence barriers).
func (w *Win) FenceChecked() error {
	w.stats.Fences++
	w.closeEpoch()
	w.syncViews()
	c := w.sys.c
	p := c.Proc()
	w.fenceRound++
	round := w.fenceRound
	w.fl.Record(p.Now(), flight.KFenceEnter, int64(w.id), int64(round), 0, 0)
	me := c.Rank()
	for r := 0; r < c.Size(); r++ {
		if r != me {
			c.OSCNotify(c.GroupToWorld(r), int(reqFence), w.id, round, false)
		}
	}
	need := c.Size() - 1
	var waited time.Duration
	for w.pendingFence[round] < need {
		if w.cfg.SyncTimeout <= 0 {
			w.pendingFence[p.Recv(w.fenceQ).(int)]++
			continue
		}
		var v any
		remaining := w.cfg.SyncTimeout - waited
		ok := remaining > 0
		if ok {
			before := p.Now()
			v, ok = p.RecvTimeout(w.fenceQ, remaining)
			waited += p.Now() - before
		}
		if !ok {
			w.stats.SyncTimeouts++
			err := ErrSyncTimeout{Op: "fence", Win: w.id, Target: -1, Waited: waited}
			w.fl.Fail(p.Now(), flight.OpFence, -1, err)
			return err
		}
		w.pendingFence[v.(int)]++
	}
	delete(w.pendingFence, round)
	w.fl.Record(p.Now(), flight.KFenceExit, int64(w.id), int64(round), int64(need), 0)
	w.ep = epochFence
	w.openEpoch("fence")
	w.resetPattern()
	return nil
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
//
// Lock and LockChecked are two algorithms as well: Lock queues on the
// shared-memory lock (FIFO hand-off) or retries the handler at a fixed
// interval, LockChecked polls both with exponential backoff so that it can
// give up. A contended lock is granted at different virtual instants by the
// two, so Lock is not LockChecked with the error dropped.
func (w *Win) Lock(target int) {
	if w.ep != epochNone {
		panic("osc: Lock inside another access epoch")
	}
	w.stats.Locks++
	c := w.sys.c
	p := c.Proc()
	if w.isShared[target] {
		if target != c.Rank() {
			p.Sleep(c.World().LockLatency(c.GroupToWorld(target), c.WorldRank()))
		}
		p.Lock(w.sharedLocks[target])
	} else {
		for {
			ok, _ := w.sys.call(c.GroupToWorld(target), oscReq{kind: reqLockTry, win: w.id}, true, 0) // unbounded: cannot fail
			if ok {
				break
			}
			p.Sleep(5 * time.Microsecond) // backoff and retry
		}
	}
	w.ep = epochLock
	w.lockHeld = target
	w.openEpoch("lock")
	w.resetPattern()
}

// LockChecked is Lock with a watchdog: it polls for the lock (and, for
// shared windows, the target node's liveness) and gives up with an
// ErrSyncTimeout after Config.SyncTimeout instead of blocking forever on a
// crashed or lock-hogging target. With SyncTimeout zero it behaves like
// Lock. On success the epoch is open exactly as after Lock.
func (w *Win) LockChecked(target int) error {
	if w.ep != epochNone {
		panic("osc: Lock inside another access epoch")
	}
	if w.cfg.SyncTimeout <= 0 {
		w.Lock(target)
		return nil
	}
	w.stats.Locks++
	c := w.sys.c
	p := c.Proc()
	world := c.GroupToWorld(target)
	var waited time.Duration
	backoff := 5 * time.Microsecond
	for {
		start := p.Now()
		if w.isShared[target] {
			// A dead target node cannot serve its exported lock; keep
			// polling (it may be restored) until the watchdog expires.
			if c.World().NodeAlive(world) {
				if target != c.Rank() {
					p.Sleep(c.World().LockLatency(world, c.WorldRank()))
				}
				if w.sharedLocks[target].TryLock() {
					break
				}
			}
		} else {
			ok, err := w.sys.call(world, oscReq{kind: reqLockTry, win: w.id}, true, w.cfg.SyncTimeout-waited)
			if err == nil && ok {
				break
			}
		}
		waited += p.Now() - start
		if waited >= w.cfg.SyncTimeout {
			w.stats.SyncTimeouts++
			err := ErrSyncTimeout{Op: "lock", Win: w.id, Target: target, Waited: waited}
			w.fl.Fail(p.Now(), flight.OpLock, world, err)
			return err
		}
		sleep := backoff
		if waited+sleep > w.cfg.SyncTimeout {
			sleep = w.cfg.SyncTimeout - waited
		}
		p.Sleep(sleep)
		waited += sleep
		if backoff < 160*time.Microsecond {
			backoff *= 2
		}
	}
	w.ep = epochLock
	w.lockHeld = target
	w.openEpoch("lock")
	w.resetPattern()
	return nil
}

// Unlock closes the passive-target epoch: completes all transfers to the
// target, then releases the lock (MPI_Win_unlock).
func (w *Win) Unlock(target int) {
	if w.ep != epochLock || w.lockHeld != target {
		panic("osc: Unlock without matching Lock")
	}
	c := w.sys.c
	p := c.Proc()
	w.closeEpoch()
	w.syncViews()
	if w.isShared[target] {
		if target != c.Rank() {
			p.Sleep(c.World().LockLatency(c.GroupToWorld(target), c.WorldRank()) / 2)
		}
		p.Unlock(w.sharedLocks[target])
	} else {
		w.sys.call(c.GroupToWorld(target), oscReq{kind: reqUnlock, win: w.id}, true, 0)
	}
	w.ep = epochNone
	w.lockHeld = -1
}
