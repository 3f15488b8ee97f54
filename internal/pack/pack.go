// Package pack implements the two packing engines compared in the paper:
//
//   - Generic: the portable MPICH baseline — a recursive traversal of the
//     datatype tree that packs into (or unpacks from) a local contiguous
//     buffer in definition order.
//   - direct_pack_ff: the paper's contribution (§3.3) — a non-recursive
//     engine driven by the flattened leaf/stack representation built at
//     commit time. It can start at an arbitrary byte offset (find_position)
//     and pack any number of bytes, and it writes through a Sink, which may
//     be local memory or — the point of the exercise — transparently mapped
//     remote SCI memory, eliminating the intermediate copies.
//
// Both engines return Stats so the simulation devices can charge
// appropriate virtual-time costs.
package pack

import (
	"fmt"

	"scimpich/internal/datatype"
)

// Sink receives packed bytes at ascending offsets relative to the start of
// the packing operation. sci.BlockWriter and shmem.BlockWriter satisfy it.
type Sink interface {
	Write(off int64, src []byte)
}

// Stats describes the block structure of a pack/unpack operation.
type Stats struct {
	// Blocks is the number of contiguous copy operations performed.
	Blocks int64
	// Bytes is the number of data bytes moved.
	Bytes int64
	// MinBlock and MaxBlock bound the block sizes encountered (0 if none).
	MinBlock int64
	MaxBlock int64
}

func (s *Stats) add(n int64) {
	s.Blocks++
	s.Bytes += n
	if s.MinBlock == 0 || n < s.MinBlock {
		s.MinBlock = n
	}
	if n > s.MaxBlock {
		s.MaxBlock = n
	}
}

// addRun counts k blocks of n bytes, exactly as k calls of add(n) would.
func (s *Stats) addRun(n, k int64) {
	s.add(n)
	s.Blocks += k - 1
	s.Bytes += (k - 1) * n
}

// AvgBlock returns the mean block size, or 0 for an empty operation.
func (s *Stats) AvgBlock() int64 {
	if s.Blocks == 0 {
		return 0
	}
	return s.Bytes / s.Blocks
}

// Cumulative is the running total of the Stats of many pack/unpack
// operations. It is a plain value owned by whoever folds into it: the
// simulation runs at most one process of a host at a time (sim.Host), so
// its owner needs no synchronisation to share it among them.
type Cumulative struct {
	// Ops is the number of pack/unpack operations folded in.
	Ops int64
	// Blocks and Bytes total the contiguous copies and data bytes moved.
	Blocks, Bytes int64
	// MaxBlock is the largest single block encountered (a high-water mark
	// when published).
	MaxBlock int64 `metric:",max"`
}

// Add folds one operation's Stats into the running totals. Empty
// operations are not counted.
func (c *Cumulative) Add(st Stats) {
	if st.Blocks == 0 {
		return
	}
	c.Ops++
	c.Blocks += st.Blocks
	c.Bytes += st.Bytes
	if st.MaxBlock > c.MaxBlock {
		c.MaxBlock = st.MaxBlock
	}
}

// BufferSink packs into a contiguous local buffer. Passed as a Sink, the
// value is boxed at every call; a pooled *bufpool.Buf is a Sink of its own
// and packs into its bytes without that allocation.
type BufferSink struct {
	Buf []byte
}

// Write implements Sink.
func (b BufferSink) Write(off int64, src []byte) {
	copy(b.Buf[off:], src)
}

// checkArgs validates and normalizes the (count, skip, maxBytes) triple
// against the type's packed size, returning the effective byte budget.
func checkArgs(t *datatype.Type, count int, skip, maxBytes int64) int64 {
	if count < 0 {
		panic("pack: negative count")
	}
	total := t.Size() * int64(count)
	if skip < 0 || skip > total {
		panic(fmt.Sprintf("pack: skip %d outside packed size %d", skip, total))
	}
	if maxBytes < 0 || skip+maxBytes > total {
		maxBytes = total - skip
	}
	return maxBytes
}
