// Package flight is the always-on flight recorder of the runtime: every
// actor (rank, device, node, fault plan) records typed protocol events —
// send/recv match keys, rendezvous chunk progress, fence and epoch
// transitions, path-policy decisions, shrink-agreement rounds, rmem
// stage/commit/replay, fault injections — as fixed-size structs into a
// per-actor ring buffer of bounded capacity. Recording is a handful of
// integer stores (zero allocations), so the recorder stays on next to the
// 0-alloc hot paths; the ring bounds memory no matter how long a run lasts.
// A recorder belongs to one run at a time, like an engine, so nothing in it
// locks.
//
// When a checked operation surfaces a typed error, Ring.Fail snapshots the
// whole recorder (the last-N window of every actor) to a deterministic
// JSON dump — first failure wins, later failures only record their KError
// event. Analyze (analyze.go) turns a dump into a happens-before graph
// with Lamport clocks and a ranked anomaly report; cmd/postmortem renders
// both for humans.
package flight

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// Kind classifies a recorded event. The A..D payload words are
// kind-specific; the table below is the single source of truth.
type Kind uint8

const (
	KNone Kind = iota
	// KRankNode maps an actor to the topology: A=world rank, B=node.
	// Recorded once per rank at world construction.
	KRankNode
	// KSendPost: a send entered the runtime. A=dst world rank, B=tag,
	// C=bytes, D=protocol (0 self, 1 short, 2 eager, 3 rendezvous).
	KSendPost
	// KRecvPost: a receive was posted. A=src world rank (-1 any), B=tag,
	// C=buffer capacity in bytes.
	KRecvPost
	// KRecvMatch: an inbound envelope matched a posted receive.
	// A=src world rank, B=tag, C=bytes, D=envelope kind code.
	KRecvMatch
	// KRdvStart (sender): rendezvous request sent. A=peer, B=reqID, C=bytes.
	KRdvStart
	// KRdvCTS (receiver): clear-to-send issued. A=peer, B=reqID, C=mode.
	KRdvCTS
	// KRdvChunk (receiver): one chunk landed. A=peer, B=reqID, C=chunk
	// bytes, D=bytes received so far.
	KRdvChunk
	// KRdvDone (both sides): transfer complete. A=peer, B=reqID, C=bytes.
	KRdvDone
	// KRdvCancel: transfer torn down. A=peer, B=reqID, C=bytes received.
	KRdvCancel
	// KPathChosen: deposit path decision for one chunk. A=path code
	// (see Path*), B=chunk bytes.
	KPathChosen
	// KPacketDrop: a packet was dropped instead of served. A=envelope kind
	// code (the window id for the one-sided reasons), B=peer world rank,
	// C=reason (see Drop*), D=reason detail (sequence number, chunk index
	// or rendezvous request id).
	KPacketDrop
	// KFenceEnter / KFenceExit: a fence round. A=window id,
	// B=round; KFenceExit C=peers heard from.
	KFenceEnter
	KFenceExit
	// KPut: a one-sided put left the origin. A=target rank, B=bytes,
	// C=window id, D=1 direct view, 0 emulated.
	KPut
	// KPutStage (rmem): a write was staged on both replicas.
	// A=key, B=seq, C=shard.
	KPutStage
	// KCommit (rmem): a commit round sealed. A=epoch, B=writes sealed.
	KCommit
	// KReplay (rmem): a pending write was replayed during recovery.
	// A=key, B=seq, C=shard.
	KReplay
	// KWriteLost (rmem): verification found a committed write missing.
	// A=key, B=committed seq, C=seq actually served.
	KWriteLost
	// KSuspect: a rank transitioned to suspected. A=rank.
	KSuspect
	// KRevoke: a rank was revoked from the world. A=rank.
	KRevoke
	// KShrinkDeposit: this rank deposited its liveness snapshot into a
	// shrink agreement. A=agreement id, B=snapshot size, C=digest.
	KShrinkDeposit
	// KShrinkAdopt: this rank adopted the sealed shrink decision.
	// A=agreement id, B=dead count, C=digest of the dead set.
	KShrinkAdopt
	// KNodeDown / KNodeUp: an interconnect node crashed / was restored.
	// A=node.
	KNodeDown
	KNodeUp
	// KSegRevoked: an exported segment was revoked. A=owner node, B=segment.
	KSegRevoked
	// KDupInject: the fault plan injected a duplicate delivery of an
	// envelope. A=envelope kind code, B=dst, C=sequence number.
	KDupInject
	// KFault: a fault was injected or surfaced as a typed transfer error.
	// A=fault kind code (fault.Kind), B=from, C=to, D=retry attempt (when
	// recorded on a retry path). An import denial carries B=owner node,
	// C=segment.
	KFault
	// KError: a checked operation surfaced a typed error. A=op code
	// (see Op), B=peer rank (-1 collective).
	KError
	// KWinDegraded: a one-sided window's direct view of a target was
	// abandoned for the emulation path. A=window id, B=target world rank.
	KWinDegraded
	// KWinAbandoned: a window was released unilaterally after a crash.
	// A=window id.
	KWinAbandoned
	// KConnLost: the transfer check toward a node kept failing and the
	// connection was given up. A=from node, B=to node, C=failed checks.
	KConnLost

	kindCount
)

var kindNames = [kindCount]string{
	KNone:          "none",
	KRankNode:      "rank-node",
	KSendPost:      "send-post",
	KRecvPost:      "recv-post",
	KRecvMatch:     "recv-match",
	KRdvStart:      "rdv-start",
	KRdvCTS:        "rdv-cts",
	KRdvChunk:      "rdv-chunk",
	KRdvDone:       "rdv-done",
	KRdvCancel:     "rdv-cancel",
	KPathChosen:    "path-chosen",
	KPacketDrop:    "packet-drop",
	KFenceEnter:    "fence-enter",
	KFenceExit:     "fence-exit",
	KPut:           "put",
	KPutStage:      "put-stage",
	KCommit:        "commit",
	KReplay:        "replay",
	KWriteLost:     "write-lost",
	KSuspect:       "suspect",
	KRevoke:        "revoke",
	KShrinkDeposit: "shrink-deposit",
	KShrinkAdopt:   "shrink-adopt",
	KNodeDown:      "node-down",
	KNodeUp:        "node-up",
	KSegRevoked:    "seg-revoked",
	KDupInject:     "dup-inject",
	KFault:         "fault",
	KError:         "error",
	KWinDegraded:   "win-degraded",
	KWinAbandoned:  "win-abandoned",
	KConnLost:      "conn-lost",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromName inverts Kind.String; unknown names map to KNone.
func KindFromName(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return KNone
}

// Op identifies the checked operation that surfaced a typed error (the
// A word of a KError event).
type Op int8

const (
	OpNone Op = iota
	OpSend
	OpRecv
	OpFence
	OpLock
	OpShrink
	OpPut
	OpGet
	OpAccumulate
	OpCommit
	OpRecover
)

var opNames = [...]string{
	OpNone: "none", OpSend: "send", OpRecv: "recv", OpFence: "fence",
	OpLock: "lock", OpShrink: "shrink", OpPut: "put", OpGet: "get",
	OpAccumulate: "accumulate", OpCommit: "commit", OpRecover: "recover",
}

func (o Op) String() string {
	if int(o) < len(opNames) && o >= 0 {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Deposit-path codes for KPathChosen. Codes 0-2 are the deposit engines the
// mpi adaptive chooser ranks (pio-ff, staged, dma-sg); these are the paths
// beside them. FormatEvent names each code by its mpi.path.chosen label.
const (
	PathGeneric = 3 // generic pack + PIO
	PathPIOCont = 4 // contiguous PIO stream
	PathDMACont = 5 // contiguous DMA
)

// Packet-drop reasons for KPacketDrop; from DropUnknownWin on, the reasons
// are the one-sided handler's and A is the window id.
const (
	DropRevoked       = 1  // an endpoint was revoked by a shrink agreement
	DropNodeDown      = 2  // an endpoint's node is down
	DropDuplicate     = 3  // a duplicated delivery (D = sequence number or chunk index)
	DropStray         = 4  // a control packet no transfer waits for (D = request id)
	DropDrainFailed   = 5  // the payload could not be read out of the port
	DropUnknownWin    = 6  // a request for a window the target no longer has
	DropUnheldUnlock  = 7  // an unlock of a lock nobody holds
	DropStalePost     = 8  // a post from outside the access group
	DropStaleComplete = 9  // a complete from outside the exposure group
	DropRemotePut     = 10 // the handler's remote-put toward the origin failed
)

// Event is one recorded protocol event: the virtual timestamp, a global
// sequence number (total order over all actors), the kind and four
// kind-specific payload words. Fixed-size by design — rings never allocate
// after construction.
type Event struct {
	At   time.Duration
	Seq  uint64
	Kind Kind
	A    int64
	B    int64
	C    int64
	D    int64
}

// Recorder owns the per-actor rings and the dump-on-failure trigger. The
// zero recorder is not usable; a nil *Recorder is: Actor returns a nil
// ring whose Record/Fail are no-ops, so call sites never branch.
type Recorder struct {
	capacity int
	seq      uint64
	byName   map[string]*Ring

	dumpPath string
	sink     func(*Dump)
	dumped   bool
	dumpErr  error
	reason   string
}

// New returns a recorder whose per-actor rings retain the last perActorCap
// events (512 when <= 0).
func New(perActorCap int) *Recorder {
	if perActorCap <= 0 {
		perActorCap = 512
	}
	return &Recorder{capacity: perActorCap, byName: make(map[string]*Ring)}
}

// Actor returns the named actor's ring, creating it on first use. Safe on
// a nil recorder (returns a nil ring).
func (r *Recorder) Actor(name string) *Ring {
	if r == nil {
		return nil
	}
	if rg, ok := r.byName[name]; ok {
		return rg
	}
	rg := &Ring{rec: r, actor: name, buf: make([]Event, r.capacity)}
	r.byName[name] = rg
	return rg
}

// SetDumpPath arms dump-on-failure: the first Fail writes the snapshot as
// JSON to path.
func (r *Recorder) SetDumpPath(path string) {
	if r == nil {
		return
	}
	r.dumpPath = path
}

// SetDumpSink arms dump-on-failure with an in-process consumer (tests,
// embedding tools). Path and sink may both be set; both fire.
func (r *Recorder) SetDumpSink(fn func(*Dump)) {
	if r == nil {
		return
	}
	r.sink = fn
}

// Dumped reports whether a failure dump has fired.
func (r *Recorder) Dumped() bool {
	if r == nil {
		return false
	}
	return r.dumped
}

// DumpErr returns the error of the last file write attempt, if any.
func (r *Recorder) DumpErr() error {
	if r == nil {
		return nil
	}
	return r.dumpErr
}

// Reason returns the reason string of the failure dump ("" before one).
func (r *Recorder) Reason() string {
	if r == nil {
		return ""
	}
	return r.reason
}

// ForceDump snapshots unconditionally (end-of-run dumps, demos) and
// delivers to the armed path/sink. It marks the recorder dumped so a later
// Fail does not overwrite it.
func (r *Recorder) ForceDump(reason string) *Dump {
	if r == nil {
		return nil
	}
	r.dumped = true
	r.reason = reason
	d := r.Snapshot(reason)
	r.deliver(d)
	return d
}

// failure is the dump-on-failure trigger: first failure wins, later
// failures only leave their KError event in the ring.
func (r *Recorder) failure(at time.Duration, actor string, op Op, err error) {
	if r.dumped {
		return
	}
	r.dumped = true
	r.reason = fmt.Sprintf("%s: %s failed at %v: %v", actor, op, at, err)
	r.deliver(r.Snapshot(r.reason))
}

func (r *Recorder) deliver(d *Dump) {
	if r.sink != nil {
		r.sink(d)
	}
	if r.dumpPath != "" {
		r.dumpErr = writeDumpFile(r.dumpPath, d)
	}
}

func writeDumpFile(path string, d *Dump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Snapshot captures every actor's retained window, actors sorted by name
// so the encoding is deterministic.
func (r *Recorder) Snapshot(reason string) *Dump {
	if r == nil {
		return nil
	}
	rings := make([]*Ring, 0, len(r.byName))
	for _, rg := range r.byName {
		rings = append(rings, rg)
	}
	sort.Slice(rings, func(i, j int) bool { return rings[i].actor < rings[j].actor })
	d := &Dump{Reason: reason, Cap: r.capacity}
	for _, rg := range rings {
		evs, dropped := rg.Window()
		ad := ActorDump{Actor: rg.actor, Dropped: dropped, Events: make([]DumpEvent, len(evs))}
		for i, e := range evs {
			ad.Events[i] = DumpEvent{
				At: int64(e.At), Seq: e.Seq, Kind: e.Kind.String(),
				A: e.A, B: e.B, C: e.C, D: e.D,
			}
		}
		d.Actors = append(d.Actors, ad)
	}
	return d
}

// Ring is one actor's fixed-capacity event window. A nil ring ignores all
// calls, so unobserved runs pay a single nil check.
type Ring struct {
	rec   *Recorder
	actor string
	buf   []Event
	n     uint64 // events ever recorded; write cursor is n % len(buf)
}

// Record appends one event. Zero allocations; safe on a nil ring.
func (rg *Ring) Record(at time.Duration, k Kind, a, b, c, d int64) {
	if rg == nil {
		return
	}
	rg.rec.seq++
	e := &rg.buf[rg.n%uint64(len(rg.buf))]
	e.At, e.Seq, e.Kind, e.A, e.B, e.C, e.D = at, rg.rec.seq, k, a, b, c, d
	rg.n++
}

// Fail records a KError event and triggers the recorder's dump-on-failure
// (first failure wins). peer is the remote world rank, -1 for collectives.
func (rg *Ring) Fail(at time.Duration, op Op, peer int, err error) {
	if rg == nil {
		return
	}
	rg.Record(at, KError, int64(op), int64(peer), 0, 0)
	rg.rec.failure(at, rg.actor, op, err)
}

// Events returns the retained window oldest-first.
func (rg *Ring) Events() []Event {
	evs, _ := rg.Window()
	return evs
}

// Window returns the retained events oldest-first plus the count of events
// evicted by the ring.
func (rg *Ring) Window() ([]Event, uint64) {
	if rg == nil {
		return nil, 0
	}
	capacity := uint64(len(rg.buf))
	if rg.n == 0 {
		return nil, 0
	}
	if rg.n <= capacity {
		out := make([]Event, rg.n)
		copy(out, rg.buf[:rg.n])
		return out, 0
	}
	start := int(rg.n % capacity)
	out := make([]Event, 0, capacity)
	out = append(out, rg.buf[start:]...)
	out = append(out, rg.buf[:start]...)
	return out, rg.n - capacity
}

// DigestInts returns an order-insensitive-free (FNV-1a over the sorted
// sequence) digest of a small int set, used to compare shrink-agreement
// decisions across ranks without shipping the sets.
func DigestInts(xs []int) int64 {
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	h := uint64(1469598103934665603)
	for _, x := range sorted {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(uint8(uint64(x) >> s))
			h *= 1099511628211
		}
	}
	return int64(h & 0x7fffffffffffffff)
}

// DigestString digests a string the same way (agreement keys).
func DigestString(s string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}
