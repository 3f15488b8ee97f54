// Package osc implements MPI-2 one-sided communication (remote memory
// access) in the architecture of SCI-MPICH (paper §4):
//
//   - Windows expose each rank's memory to the group. Memory allocated via
//     AllocMem (MPI_Alloc_mem, backed by SCI driver segments) is accessed
//     directly by transparent remote loads and stores; windows in private
//     process memory are accessed by emulation — control messages with a
//     remote interrupt invoke a handler at the target, which moves the data
//     with the standard transfer mechanisms.
//   - MPI_Put writes through the mapped window (posted stores, completed by
//     the synchronization call's store barrier). MPI_Get reads directly for
//     small amounts, but switches to a remote-put — the target writes the
//     data into the origin's address space — beyond a threshold, because
//     SCI remote reads deliver only a fraction of the write bandwidth.
//   - MPI_Accumulate always runs at the target (handler-side
//     read-modify-write), which also provides its atomicity.
//   - All three MPI-2 synchronization modes are provided: fence
//     (active target, barrier-like), post/start/complete/wait (exposure and
//     access epochs), and lock/unlock (passive target, shared-memory locks
//     for shared windows and handler-spinlocks for private ones).
package osc

import (
	"fmt"
	"time"

	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
	"scimpich/internal/smi"
)

// System is a rank's one-sided communication engine; it owns the remote
// handler and dispatches requests to windows. Create one per rank (after
// mpi setup) before creating windows: a rank keeps one engine, and a
// second NewSystem on it panics (see mpi.Comm.SetOSCHandler).
type System struct {
	c *mpi.Comm
	// wins holds the windows this rank created, indexed by window id (ids
	// are handed out in order and never reused); an abandoned window's
	// entry is nil.
	wins []*Win
	// abandoned holds the counts of the windows abandoned on this rank, so
	// that they are still published; none without a registry.
	abandoned []Stats
	// reqFree holds the request records of calls whose reply was read (see
	// oscReq).
	reqFree []*oscReq
}

// NewSystem installs the one-sided engine on the calling rank; with a
// metrics registry, the world publishes its windows' counts (see publish).
func NewSystem(c *mpi.Comm) *System {
	s := &System{c: c}
	c.SetOSCHandler(s)
	if c.Metrics() != nil {
		c.World().OnPublish(s.publish)
	}
	return s
}

// publish adds the Stats of every window this rank created, live or
// abandoned, to r: one osc.* counter per field, summed over windows and ranks.
func (s *System) publish(r *obs.Registry) {
	for _, st := range s.abandoned {
		r.AddStats("osc", st)
	}
	for _, w := range s.wins {
		if w != nil {
			r.AddStats("osc", w.stats)
		}
	}
}

// Config tunes a window's transfer policy.
type Config struct {
	// GetDirectMax is the largest direct remote read; larger gets use the
	// remote-put path. (Paper §4.2: "direct reading will only be effective
	// up to a certain amount of data".)
	GetDirectMax int64
}

// DefaultConfig returns the calibrated transfer policy.
func DefaultConfig() Config {
	return Config{
		GetDirectMax: 8 << 10,
	}
}

// inlineMax is the largest payload carried inline in a handler request
// instead of the staging area.
const inlineMax = 128

// epoch tracks which synchronization mode currently permits access.
type epoch int

const (
	epochNone epoch = iota
	epochFence
	epochStart // access epoch (origin side of PSCW)
	epochLock
)

// Win is one rank's handle on a window (MPI_Win).
type Win struct {
	sys *System
	// c is the communicator the window was created on: its group, and the
	// rank's process and world. Rebind leaves it.
	c   *mpi.Comm
	id  int
	cfg Config
	// timeout bounds the synchronization calls (Fence, Start, Wait, Lock,
	// Unlock) and the data operations' handler round trips, each ending in
	// mpi.Comm.WatchdogExpired. It is the world's bound
	// (mpi.World.SyncTimeout), resolved at creation; 0 waits forever.
	timeout time.Duration

	// Local window memory: exactly one of shared/private is set.
	shared  *mpi.SharedSeg
	private []byte

	// peers is the window's member table, one row per group rank, made
	// once at creation and never grown: a row's view may point into it.
	peers []peer
	// lockHeld tracks which target this rank currently locks.
	lockHeld int

	// access epoch state (origin side).
	ep epoch
	// While the rank waits (await), the handler wakes it through wake once
	// every rank of waitGroup (nil: no wait) has an unmatched notification
	// of kind waitKind (arrive). everyone is the group of a fence; missing,
	// pending's scratch, shares its allocation.
	wake      *sim.Chan
	waitKind  reqKind
	waitGroup []int
	everyone  []int
	missing   []int

	// put-pattern estimator: successive small puts to ascending strided
	// offsets interact with the CPU write-combine buffer; remembering the
	// previous access reproduces the §4.3 stride sensitivity.
	lastTarget int
	lastOff    int64
	lastLen    int64

	// privLockBusy: handler-side lock state for passive target on private
	// windows.
	privLockBusy bool
	// lock guards this rank's own shared window; members take its address
	// when they wire their rows (wire). A private window's peers do not
	// point at it.
	lock sim.Mutex

	// epochSpan is the open trace span of the current access epoch; data
	// operation spans on the same actor nest under it.
	epochSpan *obs.Span

	stats Stats
}

// peer is one group rank's row of a window's member table.
type peer struct {
	size   int64 // the rank's window size; -1 if it had none at creation
	shared bool  // direct access possible
	// degraded marks the rank's direct view as lost (import denied, segment
	// revoked or transfers persistently failing); accesses fall back to the
	// emulation path transparently.
	degraded bool
	view     smi.Mem // nil if private or degraded at creation
	// lock serializes passive-target access to the rank's shared window
	// without involving its CPU (shared-memory spinlock); nil if private.
	lock *sim.Mutex
	arrival
	// mapping is the storage of view when it crosses the ring.
	mapping sci.Mapping
}

// arrival is one group rank's arrival record: seen[k] counts the
// notifications of kind reqPost+k it sent (a rank counts its own fence
// arrivals), used[k] those a call matched, failed calls too (see await).
type arrival struct{ seen, used [3]uint32 }

// pending returns the world ranks of group that a call of kind k still
// waits for, those with no unmatched notification of kind k, in the
// window's scratch slice (missing).
func (w *Win) pending(k reqKind, group []int) []int {
	missing := w.missing[:0]
	for _, g := range group {
		if a := &w.peers[g]; a.seen[k-reqPost] <= a.used[k-reqPost] {
			missing = append(missing, w.c.GroupToWorld(g))
		}
	}
	return missing
}

// Stats is the one-sided activity of a window on this rank, the one store of
// these counts: the owning rank bumps them, Win.Snapshot returns them by
// value, and System.publish adds them to a registry. Puts counts local puts
// too, the path counters only remote ones. Plain integers suffice because at
// most one process of a host runs at a time (sim.Host), and every reader is
// such a process or runs after the run.
type Stats struct {
	Puts, Gets, Accs     int64
	DirectPuts           int64 `metric:"puts{path=direct}"`
	DirectGets           int64 `metric:"gets{path=direct}"`
	RemotePuts           int64 `metric:"gets{path=remote-put}"` // gets served by the remote-put path
	EmulatedPuts         int64 `metric:"puts{path=emulated}"`
	EmulatedAccumulates  int64
	BytesPut             int64 `metric:"bytes.put"`
	BytesGot             int64 `metric:"bytes.got"`
	Fences, Locks, Posts int64
	// Degradations counts direct views abandoned for the emulation path.
	// An expired wait is mpi's count (mpi.DeviceStats.WatchdogExpiries).
	Degradations int64
}

// Snapshot returns a copy of the window's statistics.
func (w *Win) Snapshot() Stats { return w.stats }

// detach removes an abandoned window from its System, keeping its counts
// for publish when the world has a registry.
func (w *Win) detach() {
	if w.sys.wins[w.id] != w {
		return // already detached: keep the counts once
	}
	w.sys.wins[w.id] = nil
	if w.c.Metrics() != nil {
		w.sys.abandoned = append(w.sys.abandoned, w.stats)
	}
}

// CreateShared collectively creates a window whose local memory is the
// given AllocMem segment (direct remote access).
func (s *System) CreateShared(seg *mpi.SharedSeg, cfg Config) *Win {
	return s.create(seg, nil, cfg)
}

// CreatePrivate collectively creates a window over private process memory
// (access by emulation only).
func (s *System) CreatePrivate(buf []byte, cfg Config) *Win {
	return s.create(nil, buf, cfg)
}

// create is the collective constructor; every rank must call it in the
// same order with its own memory. The window joins this rank's table at
// once, under the id its requests will name; after the first barrier each
// member's row is read from the member's engine by that id (wire). A peer's
// shared window whose import is denied is degraded from the start
// (degrade). A failed barrier still returns the window: a member whose
// window was absent gets a row of unknown size, so the window's next call
// toward it fails by mpi.Comm.Lost or, in checkAccess, mpi.Comm.WatchdogExpired.
func (s *System) create(seg *mpi.SharedSeg, buf []byte, cfg Config) *Win {
	c := s.c
	n := c.Size()
	w := &Win{
		sys: s, c: c, id: len(s.wins), cfg: cfg, timeout: c.World().SyncTimeout(),
		shared: seg, private: buf,
		peers:      make([]peer, n),
		lastTarget: -1, lockHeld: -1,
		wake: sim.NewChan(1),
	}
	ranks := make([]int, 2*n)
	w.everyone, w.missing = ranks[:n:n], ranks[n:n]
	s.wins = append(s.wins, w)
	err := c.Barrier()
	for r := range w.peers {
		w.everyone[r] = r
		w.wire(r)
	}
	if err == nil {
		_ = c.Barrier() // its failure, as the first's, shows at the window's next call
	}
	return w
}

// wire fills group rank r's row from r's window, read from r's engine by
// this window's id; the row of a member with no such window has size -1.
func (w *Win) wire(r int) {
	pr := &w.peers[r]
	var rw *Win
	if s, _ := w.c.World().OSCHandler(w.c.GroupToWorld(r)).(*System); s != nil && w.id < len(s.wins) {
		rw = s.wins[w.id]
	}
	switch {
	case rw == nil:
		pr.size = -1
	case rw.shared == nil:
		pr.size = int64(len(rw.private))
	default:
		pr.size, pr.shared, pr.lock = rw.shared.Size(), true, &rw.lock
		view, err := rw.shared.MapInto(w.c.WorldRank(), &pr.mapping)
		if err != nil {
			w.degrade(r, err)
			return
		}
		pr.view = view
	}
}

// LocalBytes returns the local window memory (owner view, uncosted; for
// initialization and verification).
func (w *Win) LocalBytes() []byte {
	if w.shared != nil {
		return w.shared.Bytes()
	}
	return w.private
}

// openEpoch starts the trace span covering the access epoch just opened;
// data operation spans on the same rank nest under it until the closing
// synchronization call ends it.
func (w *Win) openEpoch(mode string) {
	w.epochSpan = w.c.Tracer().StartSpan(w.c.Proc().Now(), w.c.Actor(), "osc", "epoch")
	if w.epochSpan != nil { // guarded here: the arguments are boxed before a callee could decline them
		w.epochSpan.SetDetail("win %d %s", w.id, mode)
	}
}

// closeEpoch ends the current epoch span (no-op when none is open).
func (w *Win) closeEpoch() {
	w.epochSpan.End(w.c.Proc().Now())
	w.epochSpan = nil
}

// degrade abandons the direct view of rank target: all further accesses to
// it take the emulation path (handler-mediated, using the standard transfer
// mechanisms), transparently to the caller.
func (w *Win) degrade(target int, err error) {
	if w.peers[target].degraded {
		return
	}
	w.peers[target].degraded = true
	w.stats.Degradations++
	c := w.c
	c.FlightRing().Record(c.Proc().Now(), flight.KWinDegraded, int64(w.id), int64(c.GroupToWorld(target)), 0, 0)
}

// direct reports whether rank target is reached through its view: a shared
// window whose view has not degraded.
func (w *Win) direct(target int) bool {
	pr := &w.peers[target]
	return pr.shared && !pr.degraded
}

// checkAccess refuses the data operation op (the call named call) before
// anything is sent: as an *mpi.ArgumentError, one outside an access epoch,
// toward a rank outside the group (checkRanks) or on bytes [off, off+n)
// outside the target's window; then as mpi.Comm.Lost answers for the
// target, local or remote; and toward a member whose window was absent at
// creation, as mpi.Comm.WatchdogExpired. A refusal after the argument
// checks is the call's KError; an argument error records nothing.
func (w *Win) checkAccess(call string, op flight.Op, target int, off, n int64) error {
	if w.ep == epochNone {
		return &mpi.ArgumentError{Call: call, Reason: "outside an access epoch (call Fence, Start or Lock first)"}
	}
	if err := w.checkRanks(call, target); err != nil {
		return err
	}
	// size is -1 for a member that had no window at creation; not off+n:
	// it wraps near math.MaxInt64.
	size := w.peers[target].size
	if size >= 0 && (off < 0 || off > size-n) {
		return &mpi.ArgumentError{Call: call, Reason: fmt.Sprintf("access [%d, %d) outside window of %d bytes at rank %d",
			off, off+n, size, target)}
	}
	c := w.c
	err := c.Lost(c.GroupToWorld(target))
	if err == nil && size < 0 {
		err = c.WatchdogExpired(c.GroupToWorld(target))
	}
	w.fail(op, target, err)
	return err
}

// checkRanks refuses, as an *mpi.ArgumentError naming call, a rank outside
// the window's group, before anything is sent.
func (w *Win) checkRanks(call string, ranks ...int) error {
	for _, r := range ranks {
		if r < 0 || r >= len(w.peers) {
			return &mpi.ArgumentError{Call: call, Reason: fmt.Sprintf("invalid target rank %d", r)}
		}
	}
	return nil
}
