package pack

import (
	"scimpich/internal/datatype"
)

// This file implements the direct_pack_ff algorithm (paper §3.3.2, figure
// 6): scan the list of leaves; for each leaf, evaluate its repeat-pattern
// stack with two nested loops. The outer loop is an odometer over the
// stack's outer levels; the inner one is a strided run — the k blocks of
// the innermost level, block i at first + i·stride in the user buffer and
// back to back in the linearization — which the consumers copy in one
// tight loop (Pack, Unpack) or record as one run-length scatter-gather
// entry (Descriptors). find_position resumes a partial transfer at an
// arbitrary byte offset in O(leaves)+O(depth); a block split by the budget
// at either end of a call is a run of one, clamped.
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
	return c.Pack(sink, user, budget)
}

// FFUnpack is the receive-side direction swap: it copies packed bytes from
// src (whose byte 0 corresponds to linearization offset skip) into the
// non-contiguous user buffer.
func FFUnpack(user []byte, src []byte, t *datatype.Type, count int, skip, maxBytes int64) (int64, Stats) {
	budget := checkArgs(t, count, skip, maxBytes)
	var c Cursor
	c.Init(t, count)
	c.SeekTo(skip)
	return c.Unpack(user, src, budget)
}

// Walk visits every contiguous block of count instances of t in leaf-major
// order, calling fn(off, size) with user-buffer offsets. It is the layout
// iterator used for mirrored one-sided transfers (same datatype applied at
// origin and target): a cursor over the whole linearization, which never
// splits a block.
func Walk(t *datatype.Type, count int, fn func(off, size int64)) Stats {
	var c Cursor
	c.Init(t, count)
	_, st := c.run(c.total, func(userOff, _, n, stride, k int64) {
		for ; k > 0; k-- {
			fn(userOff, n)
			userOff += stride
		}
	})
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
