// Package fault provides deterministic, seedable fault-injection plans
// for the simulated SCI cluster. The paper stresses that SCI "is still a
// network in which single nodes may fail or physical connections may be
// disturbed", which is why SCI-MPICH pairs its fast paths with connection
// monitoring and data-transfer checking; a Plan lets tests and experiments
// exercise exactly those paths.
//
// A Plan can schedule:
//
//   - hard node crashes (and restorations) at fixed virtual times,
//   - transient link disturbances over time windows (a cable being
//     wiggled: transfers on the path retry until the window passes),
//   - transmission errors the adapter clears by retransmitting on its own
//     (latency only, no error),
//   - CRC / sequence transfer errors on PIO and DMA transfers, drawn from
//     a seeded PRNG so the error schedule is a pure function of the seed
//     and the (deterministic) simulation schedule,
//   - transfer-check failures observed by the check-after-store-barrier
//     (sci.Mapping.Sync),
//   - duplicated control packets (the MPI device must stay exactly-once),
//   - segment import denials and mid-run segment revocations (unmaps).
//
// All probabilistic draws consume one shared SplitMix64 stream, so a run
// with the same plan seed and the same workload reproduces the same fault
// schedule event for event. A Plan carries mutable draw state: construct a
// fresh Plan (same seed) for every run you want to compare.
package fault

import (
	"fmt"
	"time"
)

// Any matches every node in a link-disturbance window endpoint.
const Any = -1

// Kind classifies an injected fault.
type Kind int

const (
	// CRC is a failed data check on a transfer (the adapter's
	// status-register CRC error). Retryable: retransmission clears it.
	CRC Kind = iota
	// Sequence is an SCI sequence-check mismatch on a transfer.
	// Retryable, like CRC.
	Sequence
	// LinkDisturbed is a transient disturbance window on the path (a
	// cable being re-plugged). Retryable until the window passes.
	LinkDisturbed
	// NodeUnreachable is a hard node crash: not retryable while the node
	// stays down.
	NodeUnreachable
	// SegmentRevoked is an access through a mapping whose segment has
	// been unmapped / withdrawn. Not retryable.
	SegmentRevoked
	// ImportDenied is a failed segment import. Not retryable.
	ImportDenied
	// Timeout is a watchdog expiry in a recovery layer (rendezvous
	// control traffic, one-sided synchronization). Not retryable.
	Timeout

	// Kinds is the number of kinds.
	Kinds
)

func (k Kind) String() string {
	switch k {
	case CRC:
		return "crc"
	case Sequence:
		return "sequence"
	case LinkDisturbed:
		return "link-disturbed"
	case NodeUnreachable:
		return "node-unreachable"
	case SegmentRevoked:
		return "segment-revoked"
	case ImportDenied:
		return "import-denied"
	case Timeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Error is a typed injected-fault error, mirroring an SCI adapter
// status-register check result.
type Error struct {
	Kind     Kind
	From, To int           // node ids (or ranks, at the MPI layer)
	At       time.Duration // virtual time of the injection
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: %v from %d to %d at %v", e.Kind, e.From, e.To, e.At)
}

// Retryable reports whether a bounded retransmit can clear the fault.
func (e *Error) Retryable() bool {
	switch e.Kind {
	case CRC, Sequence, LinkDisturbed:
		return true
	}
	return false
}

// NodeEvent is a scheduled crash (Up == false) or restoration (Up == true).
type NodeEvent struct {
	Node int
	At   time.Duration
	Up   bool
}

// SegmentEvent is a scheduled revocation of an exported segment.
type SegmentEvent struct {
	Owner, Seg int
	At         time.Duration
}

// Window is a link-disturbance interval between two endpoints (either may
// be Any). The disturbance is symmetric.
type Window struct {
	A, B       int
	Start, End time.Duration
}

// Counters tallies the faults a plan has actually injected, by kind.
type Counters struct {
	Retries    int64 // latency-only retransmissions (WithRetries)
	Writes     int64 // CRC/sequence errors on PIO transfers
	DMAs       int64 // CRC/sequence errors on DMA transfers
	Checks     int64 // transfer-check failures after a store barrier
	Duplicates int64 // duplicated control packets
	Imports    int64 // denied segment imports
}

// Observer is notified of every fault the plan actually injects (not of
// draws that came up clean). Flight recorders hook in here so injected
// faults land on the same timeline as the protocol events they disturb.
type Observer func(at time.Duration, kind Kind, from, to int)

// Plan is a deterministic fault schedule. The zero value (and a nil Plan)
// injects nothing; build one with New and the chainable With*/schedule
// methods.
type Plan struct {
	rng uint64

	nodeEvents []NodeEvent
	segEvents  []SegmentEvent
	windows    []Window
	importFail map[[2]int]int

	retryRate float64
	writeRate float64
	dmaRate   float64
	checkRate float64
	dupRate   float64

	// Injected counts the faults drawn so far (observability for tests
	// and benchmark reports).
	Injected Counters

	observer Observer
}

// SetObserver installs a callback invoked on each injected fault.
// Observation must not consume draws or virtual time, so installing one
// cannot change the fault schedule.
func (f *Plan) SetObserver(o Observer) {
	if f == nil {
		return
	}
	f.observer = o
}

// notify reports one injected fault to the observer, if any.
func (f *Plan) notify(at time.Duration, kind Kind, from, to int) {
	if f.observer != nil {
		f.observer(at, kind, from, to)
	}
}

// New returns an empty plan whose probabilistic draws are seeded with
// seed (0 is replaced by a fixed non-zero default).
func New(seed uint64) *Plan {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Plan{rng: seed, importFail: make(map[[2]int]int)}
}

// draw returns a uniform float64 in [0, 1) from the shared SplitMix64
// stream.
func (f *Plan) draw() float64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// CrashNode schedules a hard crash of node at the given virtual time.
func (f *Plan) CrashNode(node int, at time.Duration) *Plan {
	f.nodeEvents = append(f.nodeEvents, NodeEvent{Node: node, At: at})
	return f
}

// RestoreNode schedules a crashed node to come back at the given time.
func (f *Plan) RestoreNode(node int, at time.Duration) *Plan {
	f.nodeEvents = append(f.nodeEvents, NodeEvent{Node: node, At: at, Up: true})
	return f
}

// DisturbLink schedules a transient disturbance of the (symmetric) path
// between nodes a and b over [start, end). Either endpoint may be Any.
func (f *Plan) DisturbLink(a, b int, start, end time.Duration) *Plan {
	f.windows = append(f.windows, Window{A: a, B: b, Start: start, End: end})
	return f
}

// RevokeSegment schedules segment seg of node owner to be unmapped at the
// given time: existing mappings fail with SegmentRevoked afterwards.
func (f *Plan) RevokeSegment(owner, seg int, at time.Duration) *Plan {
	f.segEvents = append(f.segEvents, SegmentEvent{Owner: owner, Seg: seg, At: at})
	return f
}

// FailImports makes the next times attempts to import segment seg of node
// owner fail with ImportDenied.
func (f *Plan) FailImports(owner, seg, times int) *Plan {
	f.importFail[[2]int{owner, seg}] += times
	return f
}

// WithRetries sets the per-transfer probability of a transmission error
// the adapter clears on its own by retransmitting: it costs one retry
// latency and never surfaces as an error (see DrawRetries).
func (f *Plan) WithRetries(rate float64) *Plan { f.retryRate = clampRate(rate); return f }

// WithWriteErrors sets the per-PIO-transfer probability of an injected
// CRC/sequence error.
func (f *Plan) WithWriteErrors(rate float64) *Plan { f.writeRate = clampRate(rate); return f }

// WithDMAErrors sets the per-DMA-transfer probability of an injected
// CRC/sequence error.
func (f *Plan) WithDMAErrors(rate float64) *Plan { f.dmaRate = clampRate(rate); return f }

// WithCheckErrors sets the probability that a transfer check after a
// store barrier reports a failure that forces a retry.
func (f *Plan) WithCheckErrors(rate float64) *Plan { f.checkRate = clampRate(rate); return f }

// WithDuplicates sets the per-control-packet probability of a duplicated
// delivery (the exactly-once obligation of the MPI device).
func (f *Plan) WithDuplicates(rate float64) *Plan { f.dupRate = clampRate(rate); return f }

// clampRate keeps probabilities in [0, 0.95] so no draw loop can spin
// forever (the rate >= 1.0 infinite-retry bug class).
func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 0.95 {
		return 0.95
	}
	return r
}

// NodeSchedule returns the scheduled crash/restore events.
func (f *Plan) NodeSchedule() []NodeEvent {
	if f == nil {
		return nil
	}
	return f.nodeEvents
}

// SegmentSchedule returns the scheduled segment revocations.
func (f *Plan) SegmentSchedule() []SegmentEvent {
	if f == nil {
		return nil
	}
	return f.segEvents
}

// Disturbed reports whether the path between a and b is inside a
// disturbance window at time t.
func (f *Plan) Disturbed(a, b int, t time.Duration) bool {
	if f == nil {
		return false
	}
	for _, w := range f.windows {
		if t < w.Start || t >= w.End {
			continue
		}
		fwd := (w.A == Any || w.A == a) && (w.B == Any || w.B == b)
		rev := (w.A == Any || w.A == b) && (w.B == Any || w.B == a)
		if fwd || rev {
			return true
		}
	}
	return false
}

// TakeImportFailure consumes one scheduled import failure for (owner,
// seg) at virtual time at, reporting whether the import should be denied.
func (f *Plan) TakeImportFailure(at time.Duration, owner, seg int) bool {
	if f == nil {
		return false
	}
	k := [2]int{owner, seg}
	if f.importFail[k] <= 0 {
		return false
	}
	f.importFail[k]--
	f.Injected.Imports++
	f.notify(at, ImportDenied, owner, seg)
	return true
}

// maxRetries bounds the retransmit storm of one transfer: a real adapter
// gives up and reports the error long before this.
const maxRetries = 8

// DrawRetries draws how many times in a row one transfer is retransmitted:
// independent trials at the WithRetries rate, at most maxRetries. A zero
// rate draws nothing, so it leaves the schedule of every other fault alone.
func (f *Plan) DrawRetries() int {
	if f == nil || f.retryRate <= 0 {
		return 0
	}
	n := 0
	for n < maxRetries && f.draw() < f.retryRate {
		n++
	}
	f.Injected.Retries += int64(n)
	return n
}

// DrawWriteError draws an injected CRC/sequence error for one PIO
// transfer from node from to node to, or nil.
func (f *Plan) DrawWriteError(at time.Duration, from, to int) *Error {
	if f == nil || f.writeRate <= 0 || f.draw() >= f.writeRate {
		return nil
	}
	f.Injected.Writes++
	k := f.drawKind()
	f.notify(at, k, from, to)
	return &Error{Kind: k, From: from, To: to, At: at}
}

// DrawDMAError draws an injected CRC/sequence error for one DMA transfer.
func (f *Plan) DrawDMAError(at time.Duration, from, to int) *Error {
	if f == nil || f.dmaRate <= 0 || f.draw() >= f.dmaRate {
		return nil
	}
	f.Injected.DMAs++
	k := f.drawKind()
	f.notify(at, k, from, to)
	return &Error{Kind: k, From: from, To: to, At: at}
}

// DrawCheckError draws a transfer-check failure for a store-barrier
// check on the path from node from to node to.
func (f *Plan) DrawCheckError(at time.Duration, from, to int) *Error {
	if f == nil || f.checkRate <= 0 || f.draw() >= f.checkRate {
		return nil
	}
	f.Injected.Checks++
	k := f.drawKind()
	f.notify(at, k, from, to)
	return &Error{Kind: k, From: from, To: to, At: at}
}

// DrawDuplicate reports whether the next control packet should be
// delivered twice.
func (f *Plan) DrawDuplicate() bool {
	if f == nil || f.dupRate <= 0 || f.draw() >= f.dupRate {
		return false
	}
	f.Injected.Duplicates++
	return true
}

// drawKind alternates pseudo-randomly between the two retryable transfer
// error kinds.
func (f *Plan) drawKind() Kind {
	if f.draw() < 0.5 {
		return CRC
	}
	return Sequence
}
