package osc

import (
	"errors"
	"fmt"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// Elastic-recovery support: after a node crash and a Comm.Shrink
// agreement, a window over the old communicator is unusable (a barrier over
// it would hang on the dead rank) and the System's handler is still bound to
// the old communicator's context. Abandon and Rebind let a recovery layer
// tear the old window down unilaterally and re-home the engine on the
// shrunken communicator, after which fresh windows are created normally.

// ErrWinGone reports a handler refusal: the target no longer has the window
// (it was abandoned there, typically during crash recovery).
type ErrWinGone struct {
	Win    int
	Target int
}

func (e ErrWinGone) Error() string {
	return fmt.Sprintf("osc: window %d no longer exists at rank %d", e.Win, e.Target)
}

// Abandon releases the window unilaterally, without a collective barrier:
// after a crash a barrier can never complete, but the local state must
// still be detached before the recovery layer rebuilds. Any epoch is
// closed without synchronization; in-flight remote requests against the
// window id are refused gracefully by the handler (ErrWinGone at the
// origin). Window ids are never reused, so a stale request cannot alias a
// rebuilt window.
func (w *Win) Abandon() {
	w.closeEpoch()
	w.ep = epochNone
	w.lockHeld = -1
	w.fl.Record(w.sys.c.Proc().Now(), flight.KWinAbandoned, int64(w.id), 0, 0, 0)
	w.detach()
}

// Rebind re-homes the one-sided engine on a new communicator — the shrunken
// communicator returned by Shrink. The handler moves with it; window
// ids stay monotonic across the rebind so requests addressed to pre-shrink
// windows hit the graceful unknown-window path instead of a rebuilt window.
// All surviving ranks must Rebind before creating new windows.
func (s *System) Rebind(c *mpi.Comm) {
	s.c = c
	c.SetOSCHandler(s)
}

// lostTarget is the fast-fail reachability check run before (and after) an
// emulation-path operation: a revoked rank (ours or the target's) yields the
// typed revocation error, a dead target node sci.ErrConnectionLost. nil
// means the target looked reachable at the time of the check.
func (w *Win) lostTarget(target int) error {
	c := w.sys.c
	wd := c.World()
	me := c.WorldRank()
	world := c.GroupToWorld(target)
	if wd.RankRevoked(me) {
		return &mpi.RevokedRankError{Rank: me}
	}
	if wd.RankRevoked(world) {
		return &mpi.RevokedRankError{Rank: world}
	}
	if wd.NodeOf(world) != wd.NodeOf(me) && !wd.NodeAlive(world) {
		return sci.ErrConnectionLost{From: wd.NodeOf(me), To: wd.NodeOf(world)}
	}
	return nil
}

// call sends r to the handler at world rank target in a recycled request
// record and waits up to timeout (0: forever) for the reply: whether the
// handler accepted the request (a bool boxes without allocating). The record goes
// back once the reply was read; after an expired watchdog the handler may
// still read it, so it is left to the GC.
func (s *System) call(target int, r oscReq, interrupt bool, timeout time.Duration) (bool, error) {
	req := sim.TakeFree(&s.reqFree)
	*req = r
	rep, err := s.c.OSCCallTimeout(target, req, interrupt, timeout)
	if err != nil {
		return false, err
	}
	*req = oscReq{}
	s.reqFree = append(s.reqFree, req)
	return rep.(bool), nil
}

// oscRPC issues a handler request bounded by the window's SyncTimeout (with
// SyncTimeout zero it blocks until the reply). An expired watchdog surfaces
// as the underlying fault when the target is provably gone, else as
// ErrSyncTimeout; a refused reply means the target dropped the window
// (ErrWinGone).
func (w *Win) oscRPC(op string, target int, r oscReq, interrupt bool) error {
	c := w.sys.c
	ok, err := w.sys.call(c.GroupToWorld(target), r, interrupt, w.cfg.SyncTimeout)
	if err != nil {
		w.stats.SyncTimeouts++
		var silent *fault.Error
		if errors.As(err, &silent) && silent.Kind == fault.Timeout {
			return ErrSyncTimeout{Op: op, Win: w.id, Target: target, Waited: w.cfg.SyncTimeout}
		}
		return err
	}
	if !ok {
		return ErrWinGone{Win: w.id, Target: target}
	}
	return nil
}
