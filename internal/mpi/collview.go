package mpi

import (
	"unsafe"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// Reductions over derived datatypes: instead of restricting Reduce /
// Allreduce / Scan to basic types, each rank folds its contribution
// through a direct_pack_ff view — the leaf-major linearization of the
// derived type into a contiguous buffer of its base basic type. The
// reduction algorithms then run elementwise on base elements, and the
// result is unpacked back through the same view. A type qualifies when all
// its leaves share one basic type the combiner supports.

// reducible reports whether the combiner implements the basic type.
func reducible(base *datatype.Type) bool {
	switch base {
	case datatype.Float64, datatype.Float32, datatype.Int64, datatype.Int32,
		datatype.Int16, datatype.Byte, datatype.Char:
		return true
	}
	return false
}

// reduceView is the contiguous elementwise view of one rank's reduction
// buffer: elems elements of the base basic type. Its buf is the accumulator
// the reduction algorithms fold into, and there is one rule for where it
// lives: a derived type's private ff linearization is the accumulator; a
// dense type accumulates in the caller's recv; a rank that keeps no result
// (a non-root of Reduce) borrows a pooled buffer.
type reduceView struct {
	base  *datatype.Type
	elems int
	buf   []byte
	// src holds the rank's contribution: send for a dense type (buf's own
	// bytes in place), else buf. fill copies it in; the rings and recursive
	// doubling read it as is.
	src []byte
	// pool backs buf unless buf is the caller's recv. It goes back by
	// release after a reduction that succeeded; a failed one leaves it to
	// the GC, because a receive that timed out may still be posted on it.
	pool *bufpool.Buf
}

// checkReduce validates a reduction's datatype and op, returning the
// datatype's base basic type or the ArgumentError the call returns.
func checkReduce(call string, dt *datatype.Type, op Op) (*datatype.Type, error) {
	if err := op.Validate(call); err != nil {
		return nil, err
	}
	if dt == nil {
		return nil, argErrf(call, "no datatype (nil)")
	}
	base := dt.Base()
	if base == nil {
		return nil, argErrf(call, "datatype %s mixes basic types; reductions need a single base type", dt)
	}
	if !reducible(base) {
		return nil, argErrf(call, "reduction on unsupported base type %s", base)
	}
	return base, nil
}

// checkOverlap refuses the send and receive buffers of a reduction that
// overlap without being one buffer, spans as CheckBuffer sizes them: the
// algorithms read the contribution while they write the result (a ring
// folds into one block of recv while blocks of send are still to be sent,
// and a drain combines send's bytes into recv's as each chunk lands), so
// bytes of one would be read after the other overwrote them. One buffer —
// the same first byte — is the in-place form.
func checkOverlap(call string, send, recv []byte, count int, dt *datatype.Type) error {
	if count == 0 {
		return nil
	}
	span := uintptr(dt.LB() + dt.Span(count))
	s := uintptr(unsafe.Pointer(unsafe.SliceData(send)))
	r := uintptr(unsafe.Pointer(unsafe.SliceData(recv)))
	if s == r || s >= r+span || r >= s+span {
		return nil
	}
	return argErrf(call, "send and receive buffers overlap without being one buffer (%d bytes apart, %d-byte spans)",
		max(s, r)-min(s, r), span)
}

// newReduceView sets up the accumulator of a reduction over count elements
// of dt and its contribution send: ff-packed (and charged) for a derived
// type, cloned into a pooled buffer when recv is nil, else recv[:bytes] with
// send read in place. A dense send and recv are one buffer or disjoint: MPI
// calls other aliasing erroneous, and a ring reduction then goes wrong.
func (c *Comm) newReduceView(send, recv []byte, count int, dt, base *datatype.Type) reduceView {
	bytes := dt.Size() * int64(count)
	v := reduceView{base: base, elems: int(bytes / base.Size())}
	switch {
	case !dt.Contiguous():
		v.pool = bufpool.Get(int(bytes))
		v.buf = v.pool.B
		v.src = v.buf
		_, st := pack.FFPack(v.pool, send, dt, count, 0, -1)
		c.rk.w.chargeBlocks(c.p, c.rk.node, st, true)
	case recv == nil:
		v.pool = bufpool.Clone(send[:bytes])
		v.buf = v.pool.B
		v.src = v.buf
	default:
		v.buf = recv[:bytes]
		v.src = send[:bytes] // the same bytes as buf when send is recv
	}
	return v
}

// fill leaves the contribution in buf, unless it is there already.
func (v reduceView) fill() {
	if len(v.buf) > 0 && &v.src[0] != &v.buf[0] {
		copy(v.buf, v.src)
	}
}

// writeback leaves the reduced view in recv, laid out as count elements of
// dt: an ff unpack for a derived type, nothing for a dense one, which
// accumulated there.
func (v reduceView) writeback(c *Comm, recv []byte, count int, dt *datatype.Type) {
	if dt.Contiguous() {
		return
	}
	_, st := pack.FFUnpack(recv, v.buf, dt, count, 0, -1)
	c.rk.w.chargeBlocks(c.p, c.rk.node, st, true)
}

// release returns the view's pooled buffer, if it has one.
func (v reduceView) release() { v.pool.Put() }

// reduceFold is the combine a collective receive carries: the device leaves
// op(mine, partial) in the receive buffer — op(partial, mine) when
// mineLast, the partial being the lower rank's — elements of the receive's
// datatype. mine holds the first of the rank's own bytes, as many as the
// receive buffer's (nil: no combine). A pointer in place of a slice, and
// the Op narrowed beside the order, keep the fold inside the Request's 160
// bytes, a size class every receive pays for.
type reduceFold struct {
	mine     *byte
	op       int32 // an Op
	mineLast bool
}

// foldWS is the working set of a copy-out of n bytes: three streams of n
// when it folds (the partial's and the accumulator's two), else one.
func foldWS(n int64, fold bool) int64 {
	if fold {
		return 3 * n
	}
	return n
}

// folded returns the n bytes of a folding receive's buffer at skip and the
// rank's own bytes they combine with.
func (r *Request) folded(skip, n int64) (dst, mine []byte) {
	return r.buf[skip : skip+n], unsafe.Slice(r.fold.mine, len(r.buf))[skip : skip+n]
}

// irecvFold posts a collective receive of count elements of base from src
// that leaves op(mine, partial) in dst — op(partial, mine) when mineLast —
// read where the partial lands: the short packet's payload, the eager slot,
// or each rendezvous chunk in the port as it drains — one pass over the
// three streams in place of a copy and a combine after. mine is read when
// the partial is taken, not when it arrives, so an eager or short partial
// that lands before its receive is posted waits in its slot or packet as
// any other. A rendezvous chunk splits no element (newWorld refuses a
// RendezvousChunk that is not a multiple of 8). dst may be mine; neither
// may overlap a buffer in flight but the one an exchange sends, whose
// partials the device holds (exchHold). mine nil posts a plain receive,
// and op is unused (irecvColl).
func (c *Comm) irecvFold(dst, mine []byte, count int, base *datatype.Type, op Op, mineLast bool, src, tag int) *Request {
	req := sim.TakeFree(&c.rk.w.reqFree)
	if mine != nil {
		req.fold = reduceFold{mine: unsafe.SliceData(mine[:len(dst)]), op: int32(op), mineLast: mineLast}
	}
	return c.postRecv(req, dst, count, base, src, tag)
}
