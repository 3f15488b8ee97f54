// Package bufpool provides size-classed byte-buffer pools for the transfer
// pipeline's hot paths: PIO/DMA delivery capture, MPI payload staging and
// OSC scratch buffers. It follows the buffer-reuse discipline of RDMA
// stacks — a transfer grabs a pooled buffer, the delivery (or the consuming
// handler) returns it, and steady-state traffic allocates nothing.
//
// Buffers travel as *Buf handles rather than raw []byte: storing a slice in
// a sync.Pool would box the slice header on every Put, re-introducing the
// allocation the pool exists to avoid.
//
// Ownership is strictly linear: whoever holds the *Buf puts it back exactly
// once, after the last read of its bytes. The recycling points are
// documented at the call sites (and in docs/PERFORMANCE.md).
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minBits..maxBits bound the pooled size classes: 256 B to 4 MiB in
	// powers of two. Requests above the ceiling get a plain allocation
	// (dropped on Put); requests below the floor share the smallest class.
	minBits    = 8
	maxBits    = 22
	numClasses = maxBits - minBits + 1

	// unpooled marks a Buf whose backing array did not come from a pool.
	unpooled = -1
)

// Buf is a pooled byte buffer handle. B is the usable slice, cut to the
// requested length; its capacity is the size class.
type Buf struct {
	B     []byte
	class int32
}

var pools [numClasses]sync.Pool

// small keeps up to keepSmall free buffers of the smallest class, the
// payloads of short messages and control words, out of the collector's
// reach. A collection empties a sync.Pool, and the pool's next Put that
// finds its per-P slot taken allocates the pool's queue again, so a short
// message allocated or not depending on when the collector had last run.
// The larger classes stay in their pools, which the collector may empty:
// their buffers are too large to keep for the life of the process.
var small struct {
	sync.Mutex
	free []*Buf
}

const keepSmall = 8

// stats counts pool traffic (exposed for tests and the bench harness).
var gets, puts, misses atomic.Int64

func init() {
	small.free = make([]*Buf, 0, keepSmall)
	for i := range pools {
		class := int32(i)
		size := 1 << (minBits + i)
		pools[i].New = func() any {
			misses.Add(1)
			return &Buf{B: make([]byte, size), class: class}
		}
	}
}

// classFor returns the pool index for a request of n bytes, or unpooled.
func classFor(n int) int {
	if n <= 1<<minBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - minBits
	if c >= numClasses {
		return unpooled
	}
	return c
}

// Get returns a buffer with len(B) == n. The contents are arbitrary (the
// pool does not zero recycled memory); callers overwrite before reading,
// exactly as with a fresh make([]byte, n) that they fill.
func Get(n int) *Buf {
	gets.Add(1)
	c := classFor(n)
	if c == unpooled {
		return &Buf{B: make([]byte, n), class: unpooled}
	}
	var b *Buf
	if c == 0 {
		small.Lock()
		if k := len(small.free); k > 0 {
			b = small.free[k-1]
			small.free[k-1] = nil
			small.free = small.free[:k-1]
		}
		small.Unlock()
	}
	if b == nil {
		b = pools[c].Get().(*Buf)
	}
	b.B = b.B[:n]
	return b
}

// Clone returns a pooled buffer holding a copy of src. It replaces the
// append([]byte(nil), src...) capture pattern on delivery paths.
func Clone(src []byte) *Buf {
	b := Get(len(src))
	copy(b.B, src)
	return b
}

// Put returns the buffer to its pool. Putting nil is a no-op, so owners can
// unconditionally recycle optional buffers. The handle must not be used
// after Put.
func (b *Buf) Put() {
	if b == nil {
		return
	}
	puts.Add(1)
	if b.class == unpooled {
		return // oversized one-off: let the GC have it
	}
	b.B = b.B[:cap(b.B)]
	if b.class == 0 {
		small.Lock()
		kept := len(small.free) < keepSmall
		if kept {
			small.free = append(small.free, b)
		}
		small.Unlock()
		if kept {
			return
		}
	}
	pools[b.class].Put(b)
}

// Write copies src into the buffer at off. It makes a *Buf a pack.Sink that
// packs into the buffer's bytes: a pointer converts to an interface without
// allocating, where a BufferSink value built around B would be boxed at
// every call.
func (b *Buf) Write(off int64, src []byte) {
	copy(b.B[off:], src)
}

// Stats is a snapshot of pool traffic.
type Stats struct {
	// Gets and Puts count Get/Clone calls and returns.
	Gets, Puts int64
	// Misses counts Gets that had to allocate a fresh buffer.
	Misses int64
}

// Snapshot returns the cumulative pool counters.
func Snapshot() Stats {
	return Stats{Gets: gets.Load(), Puts: puts.Load(), Misses: misses.Load()}
}
