package pack

import (
	"scimpich/internal/datatype"
)

// This file implements the generic MPICH baseline: a recursive traversal of
// the datatype constructor tree in definition order (the canonical MPI type
// map order), packing into / unpacking from a local contiguous buffer. This
// is the "pack -> transfer -> unpack" pipeline of figure 4 (top).
//
// The model charges the engine a recursive descent per block
// (genericTraversalPenalty on its Stats), the overhead direct_pack_ff
// eliminates. The host does not pay it: a vector level over a basic type is
// one strided run for copyRun, and a skip passes whole blocks by arithmetic
// (blockRun). The blocks, their order and the Stats stay those of a
// block-at-a-time walk.

// GenericPack packs count instances of t from user into dst in definition
// order, starting skip bytes into the canonical linearization and packing
// at most maxBytes (< 0 for "to the end"). It returns the bytes packed and
// block statistics.
func GenericPack(dst []byte, user []byte, t *datatype.Type, count int, skip, maxBytes int64) (int64, Stats) {
	c := &genCursor{
		skip:  skip,
		limit: checkArgs(t, count, skip, maxBytes),
		move: func(userOff, linOff, n, stride, k int64) {
			copyRun(dst, linOff, n, user, userOff, stride, n, k)
		},
	}
	c.run(t, count)
	return c.written, c.stats
}

// GenericUnpack is the inverse: it scatters src (canonical linearization
// starting at offset skip) into the user buffer.
func GenericUnpack(user []byte, src []byte, t *datatype.Type, count int, skip, maxBytes int64) (int64, Stats) {
	c := &genCursor{
		skip:  skip,
		limit: checkArgs(t, count, skip, maxBytes),
		move: func(userOff, linOff, n, stride, k int64) {
			copyRun(user, userOff, stride, src, linOff, n, n, k)
		},
	}
	c.run(t, count)
	return c.written, c.stats
}

// genCursor tracks progress through the canonical linearization.
type genCursor struct {
	skip    int64 // bytes still to pass over before copying starts
	limit   int64 // byte budget once copying has started
	written int64
	stats   Stats
	// move copies k blocks of n bytes, block i at userOff + i·stride in
	// the user buffer and at linOff + i·n in the linearization.
	move func(userOff, linOff, n, stride, k int64)
}

func (c *genCursor) done() bool { return c.written >= c.limit }

func (c *genCursor) run(t *datatype.Type, count int) {
	// Fast path: dense instances form one contiguous run.
	if first, ok := denseRun(t.Flat()); ok {
		c.block(first, t.Size()*int64(count))
		return
	}
	for i := 0; i < count && !c.done(); i++ {
		c.walk(t, int64(i)*t.Extent())
	}
}

// walk recursively visits the tree in definition order — the per-block
// control-flow cost the paper's algorithm replaces with stack operations.
func (c *genCursor) walk(t *datatype.Type, base int64) {
	if c.done() {
		return
	}
	switch t.Kind() {
	case datatype.KindBasic:
		c.block(base, t.Size())
	default:
		sz := t.Size()
		// Fast path: skip whole subtrees that fall before the start point.
		if c.written == 0 && c.skip >= sz {
			c.skip -= sz
			return
		}
		c.walkChildren(t, base)
	}
}

func (c *genCursor) walkChildren(t *datatype.Type, base int64) {
	switch t.Kind() {
	case datatype.KindContiguous:
		elem, count := t.Elem(), t.Count()
		if elem.Kind() == datatype.KindBasic {
			// Adjacent basic elements fuse into one copy, as MPICH's
			// dataloop code does.
			c.block(base, int64(count)*elem.Size())
			return
		}
		for i := 0; i < count && !c.done(); i++ {
			c.walk(elem, base+int64(i)*elem.Extent())
		}
	case datatype.KindVector, datatype.KindHvector:
		elem := t.Elem()
		if elem.Kind() == datatype.KindBasic {
			c.blockRun(base, int64(t.Blocklen())*elem.Size(), t.StrideBytes(), int64(t.Count()))
			return
		}
		for i := 0; i < t.Count() && !c.done(); i++ {
			start := base + int64(i)*t.StrideBytes()
			for j := 0; j < t.Blocklen() && !c.done(); j++ {
				c.walk(elem, start+int64(j)*elem.Extent())
			}
		}
	case datatype.KindIndexed, datatype.KindHindexed:
		elem := t.Elem()
		basic := elem.Kind() == datatype.KindBasic
		lens, displs := t.Blocklens(), t.Displs()
		for i := range lens {
			start := base + displs[i]
			if basic {
				c.block(start, int64(lens[i])*elem.Size())
				continue
			}
			for j := 0; j < lens[i] && !c.done(); j++ {
				c.walk(elem, start+int64(j)*elem.Extent())
			}
		}
	case datatype.KindStruct:
		for _, f := range t.Fields() {
			start := base + f.Disp
			if f.Type.Kind() == datatype.KindBasic {
				c.block(start, int64(f.Blocklen)*f.Type.Size())
				continue
			}
			for j := 0; j < f.Blocklen && !c.done(); j++ {
				c.walk(f.Type, start+int64(j)*f.Type.Extent())
			}
		}
	}
}

// block copies one basic run, honouring skip and limit.
func (c *genCursor) block(off, n int64) {
	if n <= 0 || c.done() {
		return
	}
	if c.skip > 0 {
		if c.skip >= n {
			c.skip -= n
			return
		}
		off += c.skip
		n -= c.skip
		c.skip = 0
	}
	if c.written+n > c.limit {
		n = c.limit - c.written
	}
	c.move(off, c.written, n, 0, 1)
	c.stats.add(n)
	c.written += n
}

// blockRun copies k blocks of n bytes at off + i·stride, exactly as k calls
// of block would: the skip passes whole blocks by arithmetic, the blocks
// the limit covers whole are one move, and only a head block split by the
// skip and a tail block split by the limit go through block.
func (c *genCursor) blockRun(off, n, stride, k int64) {
	if n <= 0 || c.done() {
		return
	}
	if c.skip > 0 {
		whole := min(k, c.skip/n)
		c.skip -= whole * n
		off += whole * stride
		k -= whole
		if k > 0 && c.skip > 0 {
			c.block(off, n)
			off += stride
			k--
		}
	}
	if whole := min(k, (c.limit-c.written)/n); whole > 0 {
		c.move(off, c.written, n, stride, whole)
		c.stats.addRun(n, whole)
		c.written += whole * n
		off += whole * stride
		k -= whole
	}
	if k > 0 {
		c.block(off, n)
	}
}
