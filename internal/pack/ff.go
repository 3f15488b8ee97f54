package pack

import (
	"scimpich/internal/datatype"
)

// This file implements the direct_pack_ff algorithm (paper §3.3.2, figure
// 6): scan the list of leaves; for each leaf, evaluate its repeat-pattern
// stack with two nested loops (odometer over the stack indices, plain copy
// of the contiguous block). find_position resumes a partial transfer at an
// arbitrary byte offset in O(leaves)+O(depth); split blocks at both ends of
// the budget are handled by clamping the first and last copies.
//
// The linearization is leaf-major: all occurrences of leaf 0, then leaf 1,
// and so on. Sender and receiver use the same committed representation, so
// the direction swap (pack vs. unpack) is exact.
//
// The iteration engine lives in Cursor (cursor.go); the one-shot entry
// points below drive a stack-allocated cursor so a whole pack, a skip-resume
// chunk, or a layout walk runs without heap allocations.

// FFPack packs count instances of type t from the user buffer into sink,
// starting skip bytes into the linearization and packing at most maxBytes
// bytes (maxBytes < 0 means "to the end"). Sink offsets start at 0.
// It returns the number of bytes packed and the block statistics.
func FFPack(sink Sink, user []byte, t *datatype.Type, count int, skip, maxBytes int64) (int64, Stats) {
	budget := checkArgs(t, count, skip, maxBytes)
	var c Cursor
	c.Init(t, count)
	c.SeekTo(skip)
	return c.run(budget, func(userOff, linOff, n int64) {
		sink.Write(linOff, user[userOff:userOff+n])
	})
}

// FFUnpack is the receive-side direction swap: it copies packed bytes from
// src (whose byte 0 corresponds to linearization offset skip) into the
// non-contiguous user buffer.
func FFUnpack(user []byte, src []byte, t *datatype.Type, count int, skip, maxBytes int64) (int64, Stats) {
	budget := checkArgs(t, count, skip, maxBytes)
	var c Cursor
	c.Init(t, count)
	c.SeekTo(skip)
	return c.run(budget, func(userOff, linOff, n int64) {
		copy(user[userOff:userOff+n], src[linOff:linOff+n])
	})
}

// Walk visits every contiguous block of count instances of t in leaf-major
// order, calling fn(off, size) with user-buffer offsets. It is the layout
// iterator used for mirrored one-sided transfers (same datatype applied at
// origin and target). Unlike the cursor engine it never splits a block, so
// it runs its own tight loops: fn is invoked directly (no budget clamping,
// no second indirection) and the odometer lives on the stack.
func Walk(t *datatype.Type, count int, fn func(off, size int64)) Stats {
	var st Stats
	f := t.Flat()
	if first, ok := denseRun(f); ok {
		n := f.Size * int64(count)
		if n > 0 {
			fn(first, n)
			st.add(n)
		}
		return st
	}
	var idxBuf [inlineDepth]int64
	idx := idxBuf[:]
	if f.Depth > inlineDepth {
		idx = make([]int64, f.Depth)
	}
	for inst := int64(0); inst < int64(count); inst++ {
		base := inst * f.Extent
		for li := range f.Leaves {
			leaf := &f.Leaves[li]
			switch len(leaf.Stack) {
			case 0:
				fn(base+leaf.First, leaf.Size)
				st.add(leaf.Size)
			case 1:
				lv := &leaf.Stack[0]
				off := base + leaf.First
				for i := int64(0); i < lv.Count; i++ {
					fn(off, leaf.Size)
					st.add(leaf.Size)
					off += lv.Stride
				}
			default:
				stack := leaf.Stack
				o := idx[:len(stack)]
				for {
					off := base + leaf.First
					for j := range stack {
						off += o[j] * stack[j].Stride
					}
					fn(off, leaf.Size)
					st.add(leaf.Size)
					// Odometer increment, innermost level first; wraps back
					// to all zeros when the leaf is exhausted.
					j := len(o) - 1
					for ; j >= 0; j-- {
						o[j]++
						if o[j] < stack[j].Count {
							break
						}
						o[j] = 0
					}
					if j < 0 {
						break
					}
				}
			}
		}
	}
	return st
}

// denseRun reports whether count instances of the flattened type occupy one
// gap-free run, returning the run's starting user-buffer offset. This
// requires a single once-occurring leaf covering the whole extent.
func denseRun(f *datatype.Flat) (int64, bool) {
	if f.Size == 0 || f.Size != f.Extent || len(f.Leaves) != 1 {
		return 0, false
	}
	l := &f.Leaves[0]
	if len(l.Stack) != 0 || l.Size != f.Size {
		return 0, false
	}
	return l.First, true
}
