package osc

import (
	"fmt"
	"time"

	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// Elastic-recovery support: after a node crash and a Comm.Shrink
// agreement, a window over the old communicator is unusable (its
// synchronization fails on the dead rank) and the System is still bound to
// the old communicator. Abandon and Rebind let a recovery layer tear the old
// window down unilaterally and re-home the engine on the shrunken
// communicator, after which fresh windows are created normally.

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
	w.c.FlightRing().Record(w.c.Proc().Now(), flight.KWinAbandoned, int64(w.id), 0, 0, 0)
	w.detach()
}

// Rebind re-homes the one-sided engine on a new communicator — the shrunken
// communicator returned by Shrink. It moves the handler and the windows
// created next; a window created before keeps the communicator it was
// created on, so its calls still fail by the loss of the old members.
// Window ids stay monotonic across the rebind so requests addressed to
// pre-shrink windows hit the graceful unknown-window path instead of a
// rebuilt window. All surviving ranks must Rebind before creating new
// windows.
func (s *System) Rebind(c *mpi.Comm) {
	s.c = c
	c.SetOSCHandler(s)
}

// call sends r to the handler at world rank target in a recycled request
// record and waits up to timeout (0: forever) for the reply (see serve),
// returning the error of an expired watchdog. The record goes back once the
// reply was read; after an expired watchdog the handler may still read it,
// so it is left to the GC.
func (s *System) call(target int, r oscReq, interrupt bool, timeout time.Duration) (any, error) {
	req := sim.TakeFree(&s.reqFree)
	*req = r
	rep, err := s.c.OSCCallTimeout(target, req, interrupt, timeout)
	if err == nil {
		*req = oscReq{}
		s.reqFree = append(s.reqFree, req)
	}
	return rep, err
}

// oscRPC issues a handler request bounded by the window's timeout (with 0
// it blocks until the reply) and returns the call's error as it is: an
// expired watchdog as mpi.Comm.WatchdogExpired decides it, or a transfer
// the handler failed to make. A refused reply means the target dropped the
// window (ErrWinGone).
func (w *Win) oscRPC(target int, r oscReq, interrupt bool) error {
	rep, err := w.sys.call(w.c.GroupToWorld(target), r, interrupt, w.timeout)
	if err != nil {
		return err
	}
	// Not rep.(error) first: an assertion to an interface type may grow its
	// cache, an allocation, on any call.
	accepted, verdict := rep.(bool)
	switch {
	case !verdict:
		return rep.(error) // a transfer the handler failed to make
	case !accepted:
		return ErrWinGone{Win: w.id, Target: target}
	}
	return nil
}
