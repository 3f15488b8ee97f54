package pack

import (
	"fmt"

	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
)

// inlineDepth is the stack depth a Cursor tracks without heap allocation.
// Deeper types (rare: depth is bounded by the constructor nesting) fall back
// to one odometer allocation at creation time.
const inlineDepth = 8

// Cursor is a resumable direct_pack_ff iterator over the leaf-major
// linearization of count instances of a committed datatype. It carries the
// paper's find_position state — instance number, leaf index, per-level
// odometer and in-block remainder — across calls, so chunked transfers
// (rendezvous protocol, OSC segmented puts/gets) continue in O(1) where a
// per-chunk find_position restart would cost O(leaves)+O(depth) and an
// odometer allocation per leaf.
//
// The zero Cursor is not usable; create one with NewCursor, or Init one that
// is embedded in a longer-lived record. A Cursor must not be copied after
// first use (it owns an inline odometer buffer) and is not safe for
// concurrent use.
type Cursor struct {
	f     *datatype.Flat
	count int64
	total int64

	off  int64 // linearization bytes already consumed
	inst int64 // current type instance
	leaf int   // current leaf within the instance
	rem  int64 // bytes already copied of the current block

	// The odometer lives in idxBuf; only types deeper than inlineDepth
	// allocate deep. The two are never aliased by a stored slice — storing
	// idxBuf[:] into a field would defeat escape analysis and force every
	// stack cursor (FFPack, Walk) onto the heap.
	idxBuf [inlineDepth]int64
	deep   []int64

	dense    bool  // count instances form one gap-free run
	denseOff int64 // user-buffer start of that run
}

// NewCursor returns a cursor positioned at linearization offset 0.
func NewCursor(t *datatype.Type, count int) *Cursor {
	c := &Cursor{}
	c.Init(t, count)
	return c
}

// Init prepares a cursor in place (a stack-allocated one, or one embedded
// in a record that is reused), positioned at linearization offset 0. A deep
// odometer from an earlier use is kept when it is large enough.
func (c *Cursor) Init(t *datatype.Type, count int) {
	if count < 0 {
		panic("pack: negative count")
	}
	f := t.Flat()
	c.f = f
	c.count = int64(count)
	c.total = f.Size * int64(count)
	c.denseOff, c.dense = denseRun(f)
	switch {
	case f.Depth <= inlineDepth:
		c.deep = nil
	case cap(c.deep) >= f.Depth:
		c.deep = c.deep[:f.Depth]
	default:
		c.deep = make([]int64, f.Depth)
	}
	c.Reset()
}

// odo returns the cursor's odometer storage.
func (c *Cursor) odo() []int64 {
	if c.deep != nil {
		return c.deep
	}
	return c.idxBuf[:]
}

// Reset rewinds the cursor to linearization offset 0.
func (c *Cursor) Reset() {
	c.off, c.inst, c.leaf, c.rem = 0, 0, 0, 0
	c.idxBuf = [inlineDepth]int64{}
	for j := range c.deep {
		c.deep[j] = 0
	}
}

// Done reports whether the cursor has consumed the whole linearization.
func (c *Cursor) Done() bool { return c.off >= c.total }

// SeekTo repositions the cursor at an arbitrary linearization offset. This is
// the O(leaves)+O(depth) find_position entry of the paper; sequential
// continuation (the common case) never needs it. Seeking to the current
// offset is free.
func (c *Cursor) SeekTo(off int64) {
	if off < 0 || off > c.total {
		panic(fmt.Sprintf("pack: seek %d outside packed size %d", off, c.total))
	}
	if off == c.off {
		return
	}
	c.off = off
	if c.dense || c.total == 0 {
		return
	}
	size := c.f.Size
	c.inst = off / size
	if c.inst == c.count { // off == total
		c.leaf, c.rem = len(c.f.Leaves), 0
		return
	}
	c.leaf, c.rem = c.f.FindPositionInto(off-c.inst*size, c.odo()[:c.f.Depth])
}

// clamp normalizes a maxBytes argument (negative means "to the end")
// against the remaining budget.
func (c *Cursor) clamp(maxBytes int64) int64 {
	rem := c.total - c.off
	if maxBytes < 0 || maxBytes > rem {
		return rem
	}
	return maxBytes
}

// Pack packs up to maxBytes bytes (negative: to the end) from the user
// buffer into sink, advancing the cursor. Sink offsets are relative to the
// cursor position at the start of the call, matching FFPack's convention
// for a chunk starting at skip. A sink in local memory (a *bufpool.Buf or a
// BufferSink) takes each run as one copy loop; any other sink sees one
// Write per block, since each call may be a modelled block write.
func (c *Cursor) Pack(sink Sink, user []byte, maxBytes int64) (int64, Stats) {
	budget := c.clamp(maxBytes)
	var local []byte
	switch s := sink.(type) {
	case *bufpool.Buf:
		local = s.B
	case BufferSink:
		local = s.Buf
	default:
		return c.run(budget, func(userOff, linOff, n, stride, k int64) {
			for ; k > 0; k-- {
				sink.Write(linOff, user[userOff:userOff+n])
				userOff += stride
				linOff += n
			}
		})
	}
	return c.run(budget, func(userOff, linOff, n, stride, k int64) {
		copyRun(local, linOff, n, user, userOff, stride, n, k)
	})
}

// Unpack is the direction swap: it copies packed bytes from src (whose byte
// 0 corresponds to the cursor's current offset) into the non-contiguous
// user buffer, advancing the cursor.
func (c *Cursor) Unpack(user, src []byte, maxBytes int64) (int64, Stats) {
	return c.run(c.clamp(maxBytes), func(userOff, linOff, n, stride, k int64) {
		copyRun(user, userOff, stride, src, linOff, n, n, k)
	})
}

// copyRun copies k blocks of n bytes: block i from src at sOff + i·sStride
// to dst at dOff + i·dStride. It is the inner loop of direct_pack_ff in
// both directions and of the scatter-gather engine (Descriptor.Gather).
func copyRun(dst []byte, dOff, dStride int64, src []byte, sOff, sStride, n, k int64) {
	switch n {
	case 8:
		// The small blocks of vectors of doubles: a fixed-size move
		// instead of a memmove call per block.
		for ; k > 0; k-- {
			*(*[8]byte)(dst[dOff:]) = *(*[8]byte)(src[sOff:])
			dOff += dStride
			sOff += sStride
		}
		return
	case 16:
		for ; k > 0; k-- {
			*(*[16]byte)(dst[dOff:]) = *(*[16]byte)(src[sOff:])
			dOff += dStride
			sOff += sStride
		}
		return
	}
	for ; k > 0; k-- {
		copy(dst[dOff:dOff+n], src[sOff:sOff+n])
		dOff += dStride
		sOff += sStride
	}
}

// run drives the leaf/stack iteration for up to budget bytes, handing move
// one strided run at a time: move(userOff, linOff, n, stride, k) stands for
// k blocks of n bytes, block i at userOff + i·stride in the user buffer and
// at linOff + i·n in the linearization, linOff relative to the call start.
// A run is the part of one innermost stack level that the budget covers; a
// block split by the budget is a run of its own (k = 1). budget must
// already be clamped to Remaining().
func (c *Cursor) run(budget int64, move func(userOff, linOff, n, stride, k int64)) (int64, Stats) {
	var st Stats
	if budget <= 0 {
		return 0, st
	}
	if c.dense {
		move(c.denseOff+c.off, 0, budget, 0, 1)
		st.add(budget)
		c.off += budget
		return budget, st
	}
	var written int64
	for written < budget && c.inst < c.count {
		written = c.instance(move, written, budget, &st)
		if c.leaf >= len(c.f.Leaves) {
			c.inst++
			c.leaf, c.rem = 0, 0
		}
	}
	c.off += written
	return written, st
}

// instance packs the current type instance from the cursor position,
// stopping at the byte budget. It leaves the cursor state at the stopping
// point — the state a block-at-a-time walk would leave — and returns the
// updated written count.
func (c *Cursor) instance(move func(userOff, linOff, n, stride, k int64), written, budget int64, st *Stats) int64 {
	f := c.f
	base := c.inst * f.Extent
	for c.leaf < len(f.Leaves) {
		leaf := &f.Leaves[c.leaf]
		size := leaf.Size
		if len(leaf.Stack) == 0 {
			// Once-occurring block: a single (possibly split) copy.
			n := min(size-c.rem, budget-written)
			move(base+leaf.First+c.rem, written, n, 0, 1)
			st.add(n)
			written += n
			c.rem += n
			if c.rem < size {
				return written // budget hit mid-block
			}
			c.rem = 0
			c.leaf++
			if written >= budget {
				return written
			}
			continue
		}
		// Repeat pattern: the odometer steps the outer levels, and the
		// innermost level is one strided run per step.
		stack := leaf.Stack
		d := len(stack) - 1
		lv := &stack[d]
		idx := c.odo()[:len(stack)]
		for {
			off := base + leaf.First
			for j := range d {
				off += idx[j] * stack[j].Stride
			}
			i := idx[d]
			if c.rem > 0 {
				// Head block split by the previous call.
				n := min(size-c.rem, budget-written)
				move(off+i*lv.Stride+c.rem, written, n, 0, 1)
				st.add(n)
				written += n
				c.rem += n
				if c.rem < size {
					return written
				}
				c.rem = 0
				i++
			}
			if k := min(lv.Count-i, (budget-written)/size); k > 0 {
				move(off+i*lv.Stride, written, size, lv.Stride, k)
				st.addRun(size, k)
				written += k * size
				i += k
			}
			if i < lv.Count {
				idx[d] = i
				if written < budget {
					// Tail block split by the budget.
					n := budget - written
					move(off+i*lv.Stride, written, n, 0, 1)
					st.add(n)
					written += n
					c.rem = n
				}
				return written
			}
			// Level exhausted: carry into the outer levels.
			idx[d] = 0
			j := d - 1
			for ; j >= 0; j-- {
				idx[j]++
				if idx[j] < stack[j].Count {
					break
				}
				idx[j] = 0
			}
			if j < 0 {
				c.leaf++ // leaf exhausted, odometer wrapped to zero
				break
			}
			if written >= budget {
				return written
			}
		}
		if written >= budget {
			return written
		}
	}
	return written
}
