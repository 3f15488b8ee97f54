package memmodel

// Backing is the host memory behind a piece of simulated node memory that
// other processes can reach: an exported SCI segment or a shared-memory
// region. Its size is fixed at creation; the slice itself is
// materialised — whole and zeroed, there is no paging — by the first access
// that reads or writes it, so memory that a run exports but never touches
// costs the host nothing. Size never materialises, which keeps range checks
// and fault checks free: callers validate first and call Bytes only at the
// copy.
//
// A Backing is confined to one simulation host like the memory it models;
// it needs no locking.
type Backing struct {
	size int64
	buf  []byte
}

// Unbacked returns a backing of size bytes with no host memory yet.
func Unbacked(size int64) Backing { return Backing{size: size} }

// BackedBy returns a backing that aliases the caller's buffer.
func BackedBy(buf []byte) Backing { return Backing{size: int64(len(buf)), buf: buf} }

// Size returns the size in bytes.
func (b *Backing) Size() int64 { return b.size }

// Bytes returns the memory, materialising it on first use.
func (b *Backing) Bytes() []byte {
	if b.buf == nil && b.size > 0 {
		b.buf = make([]byte, b.size)
	}
	return b.buf
}

// Resident reports whether host memory is currently held.
func (b *Backing) Resident() bool { return b.buf != nil }
