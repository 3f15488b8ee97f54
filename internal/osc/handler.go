package osc

import (
	"fmt"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/memmodel"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// The remote handler: the target-side half of the emulation and remote-put
// paths ("internal control messages in conjunction with a remote interrupt
// are used to invoke a remote handler on a process to accept or deliver
// data using the standard transfer protocols"). It runs on the rank's
// device process.

// reqKind enumerates handler requests.
type reqKind int

const (
	reqPut reqKind = iota
	reqGet
	reqAcc
	reqLockTry
	reqUnlock
	reqPost
	reqComplete
	// reqFence announces a rank's arrival at a fence round.
	reqFence
)

// oscReq is a one-sided handler request. The records of calls — requests
// that wait for a reply — are recycled by System.call under the rule of
// their reply channel (see mpi.Comm.OSCCallTimeout): a record goes back
// once its reply was read, and one whose watchdog expired is left to the
// GC, since the handler may still read it. A notification (fence arrivals,
// post, complete) has no reply to mark the end of its reading, so it has no
// record: mpi.Comm.OSCNotify carries its kind, window and round as integers,
// and ServeNote rebuilds the request on its stack.
type oscReq struct {
	kind   reqKind
	win    int
	off    int64 // target window displacement
	n      int64 // bytes in this chunk
	skip   int64 // linearization offset of this chunk
	inline []byte
	dt     *datatype.Type
	count  int
	op     mpi.Op
	round  int // fence round number (reqFence)
}

// memModel returns the node's memory hierarchy model.
func (s *System) memModel() *memmodel.Model {
	return s.c.World().MemModel()
}

// ServeCall services one call request on the device process.
func (s *System) ServeCall(p *sim.Proc, src int, req any) any {
	r, ok := req.(*oscReq)
	if !ok {
		panic(fmt.Sprintf("osc: unexpected handler request %T", req))
	}
	return s.serve(p, src, r)
}

// ServeNote services one notification on the device process.
func (s *System) ServeNote(p *sim.Proc, src, kind, win, round int) {
	r := oscReq{kind: reqKind(kind), win: win, round: round}
	s.serve(p, src, &r)
}

// serve services one handler request and returns its reply.
func (s *System) serve(p *sim.Proc, src int, r *oscReq) any {
	w, ok := s.wins[r.win]
	if !ok {
		// Not a programming error under recovery: a stale request for a
		// window this rank already abandoned (window ids are never
		// reused). Refuse gracefully — the origin sees ErrWinGone.
		s.c.FlightRing().Record(p.Now(), flight.KPacketDrop, int64(r.win), int64(src), flight.DropUnknownWin, 0)
		return false
	}
	switch r.kind {
	case reqPut:
		s.handlePut(p, src, w, r)
	case reqGet:
		s.handleGet(p, src, w, r)
	case reqAcc:
		s.handleAcc(p, src, w, r)
	case reqLockTry:
		if w.privLockBusy {
			return false
		}
		w.privLockBusy = true
		return true
	case reqUnlock:
		if !w.privLockBusy {
			// Stale unlock from a revoked or recovered origin; refuse rather
			// than corrupt the lock state.
			w.fl.Record(p.Now(), flight.KPacketDrop, int64(w.id), int64(src), flight.DropUnheldUnlock, 0)
			return false
		}
		w.privLockBusy = false
	case reqPost:
		sim.Post(w.postQ, src)
	case reqComplete:
		sim.Post(w.completeQ, src)
	case reqFence:
		w.pendingFence[r.round]++
		if r.round == w.fenceWait && w.pendingFence[r.round] == s.c.Size()-1 {
			sim.Post(w.fenceQ, nil)
		}
	default:
		panic(fmt.Sprintf("osc: unknown request kind %d", r.kind))
	}
	return true
}

// handlePut drains a staged (or inline) chunk into the local window.
func (s *System) handlePut(p *sim.Proc, src int, w *Win, r *oscReq) {
	win := w.LocalBytes()
	var data []byte
	if r.inline != nil {
		data = r.inline
	} else {
		stage, base := s.c.OSCStageLocal(src)
		data = stage.Bytes()[base : base+r.n]
	}
	_, st := pack.FFUnpack(win[r.off:], data, r.dt, r.count, r.skip, r.n)
	p.Sleep(s.memModel().CopyCost(st.Bytes, st.AvgBlock(), st.Bytes*2))
}

// handleGet performs the remote-put: write the requested window bytes into
// the origin's staging area (through this rank's own view of it).
func (s *System) handleGet(p *sim.Proc, src int, w *Win, r *oscReq) {
	win := w.LocalBytes()
	stage, base, size, _ := s.c.OSCStage(src)
	getBase := base + size/2
	scratch := bufpool.Get(int(r.n))
	defer scratch.Put() // WriteStream captures the bytes synchronously
	_, st := pack.FFPack(scratch, win[r.off:], r.dt, r.count, r.skip, r.n)
	p.Sleep(s.memModel().CopyCost(st.Bytes, st.AvgBlock(), st.Bytes*2))
	err := stage.WriteStream(p, getBase, scratch.B, r.n)
	if err == nil {
		err = stage.Sync(p)
	}
	if err != nil {
		// Handler side of a get whose origin just died: there is nobody to
		// report to — record and drop (the origin's own watchdog fires).
		w.fl.Record(p.Now(), flight.KPacketDrop, int64(w.id), int64(src), flight.DropRemotePut, 0)
	}
}

// handleAcc combines staged (or inline) data into the window.
func (s *System) handleAcc(p *sim.Proc, src int, w *Win, r *oscReq) {
	win := w.LocalBytes()
	var data []byte
	if r.inline != nil {
		data = r.inline
	} else {
		stage, base := s.c.OSCStageLocal(src)
		data = stage.Bytes()[base : base+r.n]
	}
	// op(window, origin): one pass over three streams, as every fold.
	p.Sleep(s.memModel().CopyCost(r.n, r.n, 3*r.n))
	acc := win[r.off : r.off+r.n]
	mpi.Fold(r.op, r.dt, acc, acc, data)
}
