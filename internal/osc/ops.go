package osc

import (
	"fmt"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// The data operations. All take the origin buffer, an element count and
// datatype, the target rank and a byte displacement into the target's
// window; the datatype's layout is applied identically on both sides
// (mirrored layout), which covers the paper's workloads (contiguous strided
// accesses in sparse; halo datatypes in the examples).

// fail is the flight record of a data operation that returns err: a KError
// event against the target's world rank (which also triggers the recorder's
// dump-on-failure). A nil err records nothing.
func (w *Win) fail(op flight.Op, target int, err error) {
	if err != nil {
		w.c.FlightRing().Fail(w.c.Proc().Now(), op, w.c.GroupToWorld(target), err)
	}
}

// Put moves count elements of dt from buf into target's window at
// displacement targetOff (MPI_Put). It returns failures as typed errors: a
// dead target node yields sci.ErrConnectionLost, a revoked rank
// *mpi.RevokedRankError, a communicator a member started to shrink
// mpi.CommRevokedError (checkAccess), an expired handler watchdog the
// error of mpi.Comm.WatchdogExpired, and a target that dropped the window
// ErrWinGone. An origin buffer that cannot hold count elements
// (mpi.CheckBuffer), a call outside an access epoch, an invalid target rank
// or an access outside the target's window is an *mpi.ArgumentError,
// returned before anything is sent.
func (w *Win) Put(buf []byte, count int, dt *datatype.Type, target int, targetOff int64) (err error) {
	if err := mpi.CheckBuffer("Put", "origin buffer", buf, count, dt); err != nil {
		return err
	}
	n, span := dt.Size()*int64(count), dt.Span(count)
	if err := w.checkAccess("Put", flight.OpPut, target, targetOff, span); err != nil {
		return err
	}
	if count == 0 {
		return nil
	}
	w.stats.Puts++
	w.stats.BytesPut += n
	p := w.c.Proc()
	sp := w.c.Tracer().StartSpan(p.Now(), w.c.Actor(), "osc", "put")
	sp.SetBytes(n)
	defer func() {
		sp.End(p.Now())
		w.fail(flight.OpPut, target, err)
	}()

	if target == w.c.Rank() {
		sp.SetDetail("local")
		w.localApply(buf, count, dt, targetOff, false)
		return nil
	}
	if w.direct(target) {
		// Direct transparent remote write. A failing view (segment revoked,
		// persistent transfer faults) degrades to the emulation path below —
		// unless mpi.Comm.Lost answers, which is the caller's problem.
		if err := w.tryDirectPut(p, buf, count, dt, target, targetOff, n, span); err == nil {
			w.stats.DirectPuts++
			if sp != nil {
				sp.SetDetail("direct -> %d", target)
			}
			w.c.FlightRing().Record(p.Now(), flight.KPut, int64(w.c.GroupToWorld(target)), n, int64(w.id), 1)
			return nil
		} else if lost := w.c.Lost(w.c.GroupToWorld(target)); lost != nil {
			return lost
		} else {
			w.degrade(target, err)
		}
	}
	// Emulation: stage the linearized data into the pair's staging area
	// and invoke the remote handler.
	w.stats.EmulatedPuts++
	if sp != nil {
		sp.SetDetail("emulated -> %d", target)
	}
	w.c.FlightRing().Record(p.Now(), flight.KPut, int64(w.c.GroupToWorld(target)), n, int64(w.id), 0)
	return w.emulatedPut(buf, count, dt, target, targetOff, n)
}

// tryDirectPut deposits through the transparent remote view, retrying
// transient injected faults (mpi.Comm.RetryTransfer) before failing.
func (w *Win) tryDirectPut(p *sim.Proc, buf []byte, count int, dt *datatype.Type, target int, targetOff, n, span int64) error {
	view, c := w.peers[target].view, w.c
	if dt.Contiguous() {
		stride := w.estimateStride(target, targetOff, n)
		return c.RetryTransfer(c.GroupToWorld(target), func() error {
			return view.WritePut(p, targetOff, buf[:n], n, stride)
		})
	}
	// Mirror the layout: deposit every block at its own displacement
	// (the direct_pack machinery writing into the window).
	return c.RetryTransfer(c.GroupToWorld(target), func() error {
		bw := view.BlockWriter(p, span)
		pack.Walk(dt, count, func(off, size int64) {
			bw.Write(targetOff+off, buf[off:off+size])
		})
		return bw.Flush()
	})
}

// estimateStride watches successive puts to reconstruct the access stride
// (the write-combine interaction of the sparse benchmark's loop of strided
// MPI_Put calls).
func (w *Win) estimateStride(target int, off, n int64) int64 {
	stride := n
	if w.lastTarget == target && w.lastLen == n && off > w.lastOff {
		stride = off - w.lastOff
	}
	w.lastTarget, w.lastOff, w.lastLen = target, off, n
	return stride
}

// localApply performs a window access on the rank's own memory.
func (w *Win) localApply(buf []byte, count int, dt *datatype.Type, off int64, read bool) {
	p := w.c.Proc()
	win := w.LocalBytes()
	n := dt.Size() * int64(count)
	cost := w.sys.memModel().CopyCost(n, avgBlock(dt), n*2)
	p.Sleep(cost)
	pack.Walk(dt, count, func(o, size int64) {
		if read {
			copy(buf[o:o+size], win[off+o:off+o+size])
		} else {
			copy(win[off+o:off+o+size], buf[o:o+size])
		}
	})
}

func avgBlock(dt *datatype.Type) int64 {
	f := dt.Flat()
	var copies int64
	for i := range f.Leaves {
		copies += f.Leaves[i].Copies()
	}
	if copies == 0 {
		return f.Size
	}
	return f.Size / copies
}

// emulatedPut stages linearized data and invokes the remote handler, in
// chunks of half the staging area.
func (w *Win) emulatedPut(buf []byte, count int, dt *datatype.Type, target int, targetOff, n int64) error {
	c := w.c
	p := c.Proc()
	if n <= inlineMax {
		// The RPC blocks until the handler replied, i.e. after its last read
		// of the inline bytes — on success the pooled payload can be
		// recycled. On an expired watchdog the handler may still read them
		// later, so the error path leaks the buffer to the GC instead.
		payload := bufpool.Get(int(n))
		pack.FFPack(payload, buf, dt, count, 0, -1)
		if err := w.oscRPC(target, oscReq{
			kind: reqPut, win: w.id, off: targetOff, n: n,
			inline: payload.B, dt: dt, count: count,
		}, true); err != nil {
			return err
		}
		payload.Put()
		return nil
	}
	stage, base, size, lock := c.OSCStage(c.GroupToWorld(target))
	half := size / 2
	p.Lock(lock)
	defer p.Unlock(lock)
	// One resumable cursor across the segmented transfer: each chunk
	// continues where the last stopped instead of re-running find_position.
	cur := pack.NewCursor(dt, count)
	scratch := bufpool.Get(int(half))
	defer scratch.Put()
	var sent int64
	for sent < n {
		chunk := half
		if sent+chunk > n {
			chunk = n - sent
		}
		cur.SeekTo(sent) // free: the loop is sequential
		_, st := cur.Pack(scratch, buf, chunk)
		w.chargeLocal(st)
		if err := c.Deposit(stage, c.GroupToWorld(target), base, scratch.B[:chunk], chunk); err != nil {
			return err
		}
		if err := w.oscRPC(target, oscReq{
			kind: reqPut, win: w.id, off: targetOff, n: chunk,
			skip: sent, dt: dt, count: count,
		}, true); err != nil {
			return err
		}
		sent += chunk
	}
	return nil
}

func (w *Win) chargeLocal(st pack.Stats) {
	if st.Bytes == 0 {
		return
	}
	w.c.Proc().Sleep(w.sys.memModel().CopyCost(st.Bytes, st.AvgBlock(), st.Bytes*2))
}

// Get moves count elements of dt from target's window at displacement
// targetOff into buf (MPI_Get). Small amounts are read directly; larger
// ones use the remote-put path (the target writes into the origin's
// address space), because SCI remote reads are slow. Failures come back
// as Put's typed errors.
func (w *Win) Get(buf []byte, count int, dt *datatype.Type, target int, targetOff int64) (err error) {
	if err := mpi.CheckBuffer("Get", "origin buffer", buf, count, dt); err != nil {
		return err
	}
	n, span := dt.Size()*int64(count), dt.Span(count)
	if err := w.checkAccess("Get", flight.OpGet, target, targetOff, span); err != nil {
		return err
	}
	if count == 0 {
		return nil
	}
	w.stats.Gets++
	w.stats.BytesGot += n
	p := w.c.Proc()
	sp := w.c.Tracer().StartSpan(p.Now(), w.c.Actor(), "osc", "get")
	sp.SetBytes(n)
	defer func() {
		sp.End(p.Now())
		w.fail(flight.OpGet, target, err)
	}()

	if target == w.c.Rank() {
		sp.SetDetail("local")
		w.localApply(buf, count, dt, targetOff, true)
		return nil
	}
	if w.direct(target) && n <= w.cfg.GetDirectMax {
		// Direct transparent remote read: the CPU stalls per block. A
		// failing view degrades to the remote-put path below, which rereads
		// the whole amount.
		if err := w.tryDirectGet(p, buf, count, dt, target, targetOff, n); err == nil {
			w.stats.DirectGets++
			if sp != nil {
				sp.SetDetail("direct <- %d", target)
			}
			return nil
		} else if lost := w.c.Lost(w.c.GroupToWorld(target)); lost != nil {
			return lost
		} else {
			w.degrade(target, err)
		}
	}
	// Remote-put: the handler at the target writes the data into this
	// process's staging area (its own address space view of us).
	w.stats.RemotePuts++
	if sp != nil {
		sp.SetDetail("remote-put <- %d", target)
	}
	return w.remotePutGet(buf, count, dt, target, targetOff, n)
}

// tryDirectGet reads through the transparent remote view, retrying
// transient injected faults as tryDirectPut does.
func (w *Win) tryDirectGet(p *sim.Proc, buf []byte, count int, dt *datatype.Type, target int, targetOff, n int64) error {
	view, c := w.peers[target].view, w.c
	if dt.Contiguous() {
		return c.RetryTransfer(c.GroupToWorld(target), func() error {
			return view.Read(p, targetOff, buf[:n])
		})
	}
	return c.RetryTransfer(c.GroupToWorld(target), func() error {
		var err error
		pack.Walk(dt, count, func(off, size int64) {
			if err != nil {
				return
			}
			err = view.Read(p, targetOff+off, buf[off:off+size])
		})
		return err
	})
}

// remotePutGet drains a get through the staging area in chunks. A chunk's
// round is idempotent (the handler only reads the window), so a transfer
// the handler failed to make, which comes back as the call's error, runs
// the round again under mpi.Comm.RetryTransfer.
func (w *Win) remotePutGet(buf []byte, count int, dt *datatype.Type, target int, targetOff, n int64) error {
	c := w.c
	world := c.GroupToWorld(target)
	stageLocal, base := c.OSCStageLocal(world)
	_, _, size, _ := c.OSCStage(world)
	half := size / 2
	getBase := base + half
	// Interrupt delivery whenever the target may not be polling: private
	// windows, but also shared windows whose direct view degraded
	// mid-epoch — the target never expected emulation traffic and a
	// polling-only request could hang until the watchdog.
	interrupt := !w.direct(target)
	// The unpack cursor resumes across the segmented drain (mirrors
	// emulatedPut's pack cursor).
	cur := pack.NewCursor(dt, count)
	var got int64
	for got < n {
		chunk := half
		if got+chunk > n {
			chunk = n - got
		}
		if err := c.RetryTransfer(world, func() error {
			return w.oscRPC(target, oscReq{
				kind: reqGet, win: w.id, off: targetOff, n: chunk,
				skip: got, dt: dt, count: count,
			}, interrupt)
		}); err != nil {
			return err
		}
		// The data now sits in the local staging area; scatter it into
		// the user buffer.
		src := stageLocal.Bytes()[getBase : getBase+chunk]
		cur.SeekTo(got) // free: the loop is sequential
		_, st := cur.Unpack(buf, src, chunk)
		w.chargeLocal(st)
		got += chunk
	}
	return nil
}

// Accumulate combines count elements of the basic type dt from buf into
// target's window at targetOff using op (MPI_Accumulate). The operation
// always executes at the target, which makes it atomic with respect to
// other accumulates. A derived datatype, an unknown op or a short origin
// buffer is an *mpi.ArgumentError, returned before anything is sent;
// failures come back as Put's typed errors.
func (w *Win) Accumulate(buf []byte, count int, dt *datatype.Type, op mpi.Op, target int, targetOff int64) (err error) {
	if err := mpi.CheckBuffer("Accumulate", "origin buffer", buf, count, dt); err != nil {
		return err
	}
	if dt.Kind() != datatype.KindBasic {
		return &mpi.ArgumentError{Call: "Accumulate", Reason: fmt.Sprintf("datatype %s is not a basic type", dt)}
	}
	if err := op.Validate("Accumulate"); err != nil {
		return err
	}
	n := dt.Size() * int64(count)
	if err := w.checkAccess("Accumulate", flight.OpAccumulate, target, targetOff, n); err != nil {
		return err
	}
	if count == 0 {
		return nil
	}
	w.stats.Accs++
	c := w.c
	p := c.Proc()
	sp := c.Tracer().StartSpan(p.Now(), c.Actor(), "osc", "acc")
	sp.SetBytes(n)
	defer func() {
		sp.End(p.Now())
		w.fail(flight.OpAccumulate, target, err)
	}()
	// As in remotePutGet: a degraded shared target is no longer polling
	// for emulation traffic, so request an interrupt.
	interrupt := !w.direct(target)

	if n <= inlineMax || target == c.Rank() {
		if sp != nil {
			sp.SetDetail("inline -> %d", target)
		}
		// As in emulatedPut: recycle the pooled payload only after a
		// successful round trip.
		payload := bufpool.Get(int(n))
		w.chargeLocalBytes(n)
		copy(payload.B, buf[:n])
		if err := w.oscRPC(target, oscReq{
			kind: reqAcc, win: w.id, off: targetOff, n: n,
			inline: payload.B, dt: dt, count: count, op: op,
		}, interrupt); err != nil {
			return err
		}
		payload.Put()
		return nil
	}
	w.stats.EmulatedAccumulates++
	if sp != nil {
		sp.SetDetail("staged -> %d", target)
	}
	stage, base, size, lock := c.OSCStage(c.GroupToWorld(target))
	half := size / 2
	p.Lock(lock)
	defer p.Unlock(lock)
	elemSize := dt.Size()
	var sent int64
	for sent < n {
		chunk := half - half%elemSize
		if sent+chunk > n {
			chunk = n - sent
		}
		// Only the deposit retries: the handler combines each chunk once.
		if err := c.Deposit(stage, c.GroupToWorld(target), base, buf[sent:sent+chunk], n); err != nil {
			return err
		}
		if err := w.oscRPC(target, oscReq{
			kind: reqAcc, win: w.id, off: targetOff + sent, n: chunk,
			dt: dt, count: int(chunk / elemSize), op: op,
		}, interrupt); err != nil {
			return err
		}
		sent += chunk
	}
	return nil
}

func (w *Win) chargeLocalBytes(n int64) {
	w.c.Proc().Sleep(w.sys.memModel().CopyCost(n, n, n))
}
