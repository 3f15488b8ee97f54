package mpi

import (
	"fmt"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/sim"
)

// envKind enumerates the control packets of the device protocol.
type envKind int

const (
	// envShort carries the whole payload inline in the control packet.
	envShort envKind = iota
	// envEager announces data deposited in an eager slot.
	envEager
	// envEagerAck returns an eager slot credit to the sender.
	envEagerAck
	// envRdvReq asks the receiver to set up a rendezvous transfer.
	envRdvReq
	// envRdvCTS grants the sender the rendezvous buffer (clear-to-send).
	envRdvCTS
	// envRdvData announces one rendezvous chunk delivered to a slot.
	envRdvData
	// envRdvAck confirms a chunk has been drained (slot reusable).
	envRdvAck
	// envRdvCancel aborts an in-flight rendezvous after the sender gives
	// up (permanent deposit failure): the receiver frees its rendezvous
	// state and fails the posted receive instead of waiting for the
	// watchdog.
	envRdvCancel
	// envLocalPost is a posted receive. The Request itself queues at the
	// device, so no envelope carries this kind; it keeps its place because
	// flight dumps record kinds by number.
	envLocalPost
	// envLocalProbe queries the unexpected queue (MPI_Probe/Iprobe).
	envLocalProbe
	// envOSC carries a one-sided-communication handler request (the
	// "emulation" path for windows in private memory).
	envOSC
	// envOSCReply answers an envOSC request.
	envOSCReply

	envKindCount
)

var envKindNames = [envKindCount]string{
	envShort:      "short",
	envEager:      "eager",
	envEagerAck:   "eager-ack",
	envRdvReq:     "rdv-req",
	envRdvCTS:     "rdv-cts",
	envRdvData:    "rdv-data",
	envRdvAck:     "rdv-ack",
	envRdvCancel:  "rdv-cancel",
	envLocalPost:  "local-post",
	envLocalProbe: "local-probe",
	envOSC:        "osc",
	envOSCReply:   "osc-reply",
}

func (k envKind) String() string {
	if k < 0 || k >= envKindCount {
		return "unknown"
	}
	return envKindNames[k]
}

// envelope is one control packet. The payload of short messages rides in
// the envelope (as it does in a real control packet); everything else
// refers to memory the sender has already written remotely.
//
// Envelopes are recycled through the world's free list (World.newEnvelope,
// World.freeEnvelope). An envelope has one owner at a time — the delivery
// event, then the device queue it waits in, then the handler or the sender
// process a control reply is forwarded to — and whoever reads it last frees
// it: the device after delivering a message, dropping a duplicate or serving
// a control packet that ends with it (a rendezvous copies what it needs of
// its request packet); the sender after consuming a CTS, ack or one-sided
// reply.
type envelope struct {
	// gen is odd while the envelope is handed out and even while it sits in
	// the free list; every reader checks it (see live).
	gen uint32
	// to is the device the delivery event posts the envelope to.
	to *device

	kind     envKind
	src, dst int
	tag      int
	ctx      int // communicator context
	bytes    int64
	// seq is a per-(sender, receiver) sequence number stamped on
	// message-bearing envelopes so the receiving device can drop injected
	// duplicates (exactly-once delivery under retransmission faults).
	// 0 means unsequenced (control traffic).
	seq int64
	// type-signature hash of the send datatype (0 when byte-only: the
	// wildcard raw-buffer idiom).
	sig uint64

	// short protocol. payloadBuf is the pooled buffer backing payload (nil
	// for unpooled payloads); the receiving device recycles it after the
	// final read. An injected duplicate is a copy without the payload: the
	// sequence check drops it before the payload would be touched.
	payload    []byte
	payloadBuf *bufpool.Buf

	// eager protocol
	slot int

	// rendezvous protocol
	reqID     int64
	chunk     int   // chunk index (envRdvData/envRdvAck)
	chunkLen  int64 // bytes in this chunk
	fingerprt uint64
	reply     *sim.Chan // sender-side channel for CTS/ACK delivery

	// local probe
	probe *probeReq

	// one-sided communication: osc is the request of a call; a notification
	// (OSCNotify) has none, and its kind and window ride in tag and ctx.
	osc any
}

// probeReq is a pending probe: immediate probes answer from the current
// unexpected queue (nil when empty); blocking probes wait for the first
// matching arrival.
type probeReq struct {
	ctx, src, tag int
	immediate     bool
	done          *sim.Future
}

// matches mirrors recvReq matching.
func (r *probeReq) matches(src, tag, ctx int) bool {
	if r.ctx != ctx {
		return false
	}
	if r.src != AnySource && r.src != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}

// live panics unless the envelope is handed out: a reader holding one that
// went back to the free list (or came out of it again for another packet
// since) is a recycling bug, and must not pass silently.
func (e *envelope) live() {
	if e.gen&1 == 0 {
		panic(fmt.Sprintf("mpi: %v envelope read after it was recycled (generation %d)", e.kind, e.gen))
	}
}

// newEnvelope hands out a recycled (or, with none free, a new) envelope
// holding e. The free list is a plain slice: a world lives on one host,
// whose processes and callbacks run one at a time.
func (w *World) newEnvelope(e envelope) *envelope {
	env := sim.TakeFree(&w.envFree)
	e.gen = env.gen + 1
	*env = e
	return env
}

// freeEnvelope takes env back after its last read. The list holds only
// envelopes that were made in the blocks of sim.TakeFree, the first of them
// sized for one per rank (see newWorld).
func (w *World) freeEnvelope(env *envelope) {
	env.live()
	*env = envelope{gen: env.gen + 1}
	w.envFree = append(w.envFree, env)
}

// recvReq is the matching key and destination of a posted receive; the
// key's context is its Request's communicator's.
type recvReq struct {
	src, tag int // may be wildcards
	buf      []byte
	count    int
	dt       *datatype.Type
}

// Status describes a completed receive.
type Status struct {
	// Source is the sending rank.
	Source int
	// Tag is the matched tag.
	Tag int
	// Bytes is the number of payload bytes received.
	Bytes int64
}

// AnySource and AnyTag are the receive wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// matches reports whether an incoming (src, tag, ctx) matches the posted
// request.
func (r *Request) matches(src, tag, ctx int) bool {
	if r.c.ctx != ctx {
		return false
	}
	if r.src != AnySource && r.src != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}
