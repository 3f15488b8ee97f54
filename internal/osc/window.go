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
	"reflect"
	"time"

	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
	"scimpich/internal/smi"
)

// System is a rank's one-sided communication engine; it owns the remote
// handler and dispatches requests to windows. Create one per rank (after
// mpi setup) before creating windows: a rank keeps one engine, and a
// second NewSystem on it panics (see mpi.Comm.SetOSCHandler).
type System struct {
	c       *mpi.Comm
	wins    map[int]*Win
	nextWin int
	met     oscMetrics
	// abandoned sums the counts of the windows abandoned on this rank, so
	// that they are still published; nil without a registry.
	abandoned *Stats
	// reqFree holds the request records of calls whose reply was read (see
	// oscReq).
	reqFree []*oscReq
}

// NewSystem installs the one-sided engine on the calling rank; with a
// metrics registry, the world publishes its windows' counts (see publish).
func NewSystem(c *mpi.Comm) *System {
	s := &System{c: c, wins: make(map[int]*Win), met: newOSCMetrics(c.Metrics())}
	c.SetOSCHandler(s)
	if c.Metrics() != nil {
		s.abandoned = new(Stats)
		c.World().OnPublish(s.publish)
	}
	return s
}

// publish adds the Stats of every window this rank created, live or
// abandoned, to r: one osc.* counter per field, summed over windows and ranks.
func (s *System) publish(r *obs.Registry) {
	r.AddStats("osc", *s.abandoned)
	for _, w := range s.wins {
		r.AddStats("osc", w.stats)
	}
}

// oscMetrics caches the registry histograms for the one-sided layer,
// resolved once at System creation so the operation paths never do a map
// lookup. All fields are nil without a registry; nil collectors are no-ops.
type oscMetrics struct {
	putNS, getNS, accNS *obs.Histogram
	epochNS             *obs.Histogram
}

func newOSCMetrics(r *obs.Registry) oscMetrics {
	return oscMetrics{
		putNS:   r.Histogram("osc.put.ns"),
		getNS:   r.Histogram("osc.get.ns"),
		accNS:   r.Histogram("osc.acc.ns"),
		epochNS: r.Histogram("osc.epoch.ns"),
	}
}

// Config tunes a window's transfer policy.
type Config struct {
	// GetDirectMax is the largest direct remote read; larger gets use the
	// remote-put path. (Paper §4.2: "direct reading will only be effective
	// up to a certain amount of data".)
	GetDirectMax int64
	// SyncTimeout bounds the synchronization calls (Fence, Lock) and the
	// data operations' handler round-trips: waiting longer than this for a
	// peer yields an ErrSyncTimeout instead of deadlocking. 0 disables the
	// watchdog; mpi.AutoTimeout resolves to the world's scaled bound
	// (ScaledSyncTimeout) at window creation, which panics on any other
	// negative value.
	SyncTimeout time.Duration
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
	id  int
	cfg Config

	// Local window memory: exactly one of shared/private is set.
	shared  *mpi.SharedSeg
	private []byte

	sizes    []int64 // window size per rank
	isShared []bool  // per rank: direct access possible
	views    []smi.Mem
	// degraded[t] marks rank t's direct view as lost (segment revoked or
	// transfers persistently failing); accesses fall back to the emulation
	// path transparently.
	degraded []bool
	// sharedLocks[t] serializes passive-target access to rank t's shared
	// window without involving t's CPU (shared-memory spinlock).
	sharedLocks []*sim.Mutex
	// lockHeld tracks which target this rank currently locks.
	lockHeld int

	// access epoch state (origin side).
	ep epoch
	// exposure bookkeeping (target side of PSCW).
	postQ     *sim.Chan
	completeQ *sim.Chan

	// put-pattern estimator: successive small puts to ascending strided
	// offsets interact with the CPU write-combine buffer; remembering the
	// previous access reproduces the §4.3 stride sensitivity.
	lastTarget int
	lastOff    int64
	lastLen    int64

	// privLockBusy: handler-side lock state for passive target on private
	// windows.
	privLockBusy bool
	// fence state: the handler counts peer arrivals per round in
	// pendingFence (a peer may be a round ahead) and, once fenceWait, the
	// round this rank last waited for, is full, wakes it through fenceQ.
	fenceQ       *sim.Chan
	fenceRound   int
	fenceWait    int
	pendingFence map[int]int
	// ownLock guards this rank's own shared window (nil if private);
	// origins take it from the exchange table.
	ownLock *sim.Mutex

	// actor is the cached trace-actor name of the owning rank ("rank<i>").
	actor string
	// fl is the owning rank's flight-recorder ring (nil-safe when no
	// recorder is configured).
	fl *flight.Ring
	// epochSpan is the open trace span of the current access epoch; data
	// operation spans on the same actor nest under it. epochOpen/epochStart
	// track the epoch independently of the span so the epoch-duration
	// histogram also fills without a tracer.
	epochSpan  *obs.Span
	epochOpen  bool
	epochStart time.Duration

	stats Stats
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
	// Degradations counts direct views abandoned for the emulation path;
	// SyncTimeouts counts synchronization waits that expired.
	Degradations int64
	SyncTimeouts int64
}

// Snapshot returns a copy of the window's statistics.
func (w *Win) Snapshot() Stats { return w.stats }

// detach removes an abandoned window from its System, folding its
// counts into the System's when they are published. Every Stats field is an
// int64 count.
func (w *Win) detach() {
	if w.sys.wins[w.id] != w {
		return // already detached: fold the counts once
	}
	delete(w.sys.wins, w.id)
	if w.sys.abandoned != nil {
		sum, own := reflect.ValueOf(w.sys.abandoned).Elem(), reflect.ValueOf(&w.stats).Elem()
		for i := 0; i < sum.NumField(); i++ {
			sum.Field(i).SetInt(sum.Field(i).Int() + own.Field(i).Int())
		}
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
// same order with its own memory; a failed barrier panics.
func (s *System) create(seg *mpi.SharedSeg, buf []byte, cfg Config) *Win {
	c := s.c
	mpi.CheckTimeout("osc.Config.SyncTimeout", cfg.SyncTimeout)
	if cfg.SyncTimeout == mpi.AutoTimeout {
		cfg.SyncTimeout = c.World().ScaledSyncTimeout()
	}
	id := s.nextWin
	s.nextWin++
	w := &Win{
		sys: s, id: id, cfg: cfg,
		shared: seg, private: buf,
		actor:      c.Actor(),
		fl:         c.FlightRing(),
		lastTarget: -1, lockHeld: -1,
		postQ:        sim.NewChan(1 << 16),
		completeQ:    sim.NewChan(1 << 16),
		fenceQ:       sim.NewChan(1 << 16),
		pendingFence: make(map[int]int),
	}
	if seg != nil {
		w.ownLock = new(sim.Mutex)
	}
	key := fmt.Sprintf("osc.win.%d.%d", c.ContextID(), id)
	c.World().Deposit(key, c.Rank(), w)
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	all := c.World().Collect(key)
	n := c.Size()
	w.sizes = make([]int64, n)
	w.isShared = make([]bool, n)
	w.views = make([]smi.Mem, n)
	w.degraded = make([]bool, n)
	w.sharedLocks = make([]*sim.Mutex, n)
	for r := 0; r < n; r++ {
		rw := all[r].(*Win)
		if rw.shared != nil {
			w.sizes[r] = rw.shared.Size()
			w.isShared[r] = true
			w.views[r] = rw.shared.MapFrom(c.WorldRank())
			w.sharedLocks[r] = rw.ownLock
		} else {
			w.sizes[r] = int64(len(rw.private))
		}
	}
	s.wins[id] = w
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	return w
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
	now := w.sys.c.Proc().Now()
	w.epochOpen, w.epochStart = true, now
	w.epochSpan = w.sys.c.Tracer().StartSpan(now, w.actor, "osc", "epoch")
	if w.epochSpan != nil { // guarded here: the arguments are boxed before a callee could decline them
		w.epochSpan.SetDetail("win %d %s", w.id, mode)
	}
}

// closeEpoch ends the current epoch span (no-op when none is open) and
// feeds its duration to the epoch histogram.
func (w *Win) closeEpoch() {
	if !w.epochOpen {
		return
	}
	now := w.sys.c.Proc().Now()
	w.sys.met.epochNS.ObserveDuration(now - w.epochStart)
	w.epochSpan.End(now)
	w.epochSpan = nil
	w.epochOpen = false
}

// degrade abandons the direct view of rank target: all further accesses to
// it take the emulation path (handler-mediated, using the standard transfer
// mechanisms), transparently to the caller.
func (w *Win) degrade(target int, err error) {
	if w.degraded[target] {
		return
	}
	w.degraded[target] = true
	w.stats.Degradations++
	c := w.sys.c
	w.fl.Record(c.Proc().Now(), flight.KWinDegraded, int64(w.id), int64(c.GroupToWorld(target)), 0, 0)
}

func (w *Win) checkEpoch(op string) {
	if w.ep == epochNone {
		panic(fmt.Sprintf("osc: %s outside an access epoch (call Fence, Start or Lock first)", op))
	}
}

func (w *Win) checkTarget(target int, off, n int64) {
	if target < 0 || target >= len(w.sizes) {
		panic(fmt.Sprintf("osc: invalid target rank %d", target))
	}
	if off < 0 || off > w.sizes[target]-n { // not off+n: it wraps near math.MaxInt64
		panic(fmt.Sprintf("osc: access [%d, %d) outside window of %d bytes at rank %d",
			off, off+n, w.sizes[target], target))
	}
}
