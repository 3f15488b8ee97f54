package pack

import (
	"fmt"

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

// Offset returns the linearization offset the cursor is positioned at.
func (c *Cursor) Offset() int64 { return c.off }

// Total returns the packed size of the whole operation.
func (c *Cursor) Total() int64 { return c.total }

// Remaining returns the bytes left to the end of the linearization.
func (c *Cursor) Remaining() int64 { return c.total - c.off }

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
// for a chunk starting at skip.
func (c *Cursor) Pack(sink Sink, user []byte, maxBytes int64) (int64, Stats) {
	return c.run(c.clamp(maxBytes), func(userOff, linOff, n int64) {
		sink.Write(linOff, user[userOff:userOff+n])
	})
}

// Unpack is the direction swap: it copies packed bytes from src (whose byte
// 0 corresponds to the cursor's current offset) into the non-contiguous
// user buffer, advancing the cursor.
func (c *Cursor) Unpack(user, src []byte, maxBytes int64) (int64, Stats) {
	return c.run(c.clamp(maxBytes), func(userOff, linOff, n int64) {
		copy(user[userOff:userOff+n], src[linOff:linOff+n])
	})
}

// run drives the leaf/stack iteration for up to budget bytes, invoking move
// for every contiguous block: move(userOff, linOff, n) with linOff relative
// to the call start. budget must already be clamped to Remaining().
func (c *Cursor) run(budget int64, move func(userOff, linOff, n int64)) (int64, Stats) {
	var st Stats
	if budget <= 0 {
		return 0, st
	}
	if c.dense {
		move(c.denseOff+c.off, 0, budget)
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
// point and returns the updated written count.
func (c *Cursor) instance(move func(userOff, linOff, n int64), written, budget int64, st *Stats) int64 {
	f := c.f
	base := c.inst * f.Extent
	for c.leaf < len(f.Leaves) {
		leaf := &f.Leaves[c.leaf]
		switch len(leaf.Stack) {
		case 0:
			// Once-occurring block: a single (possibly split) copy.
			n := leaf.Size - c.rem
			if written+n > budget {
				n = budget - written
			}
			move(base+leaf.First+c.rem, written, n)
			st.add(n)
			written += n
			c.rem += n
			if c.rem < leaf.Size {
				return written // budget hit mid-block
			}
			c.rem = 0
			c.leaf++
		case 1:
			// Dominant shape (vectors, matrix rows/columns): one replication
			// level, iterated without the odometer.
			lv := &leaf.Stack[0]
			odo := c.odo()
			i := odo[0]
			for i < lv.Count {
				n := leaf.Size - c.rem
				if written+n > budget {
					n = budget - written
				}
				move(base+leaf.First+i*lv.Stride+c.rem, written, n)
				st.add(n)
				written += n
				c.rem += n
				if c.rem < leaf.Size {
					odo[0] = i
					return written
				}
				c.rem = 0
				i++
				if written >= budget {
					break
				}
			}
			if i < lv.Count {
				odo[0] = i
				return written
			}
			odo[0] = 0
			c.leaf++
		default:
			// General repeat pattern: odometer over the stack levels.
			stack := leaf.Stack
			idx := c.odo()[:len(stack)]
			for {
				off := base + leaf.First
				for j := range stack {
					off += idx[j] * stack[j].Stride
				}
				n := leaf.Size - c.rem
				if written+n > budget {
					n = budget - written
				}
				move(off+c.rem, written, n)
				st.add(n)
				written += n
				c.rem += n
				if c.rem < leaf.Size {
					return written
				}
				c.rem = 0
				// Odometer increment, innermost level first.
				j := len(idx) - 1
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
		}
		if written >= budget {
			return written
		}
	}
	return written
}
