// Package smi is the Shared Memory Interface abstraction layer (modelled on
// the SMI library the paper's SCI-MPICH is built on): a uniform API over
// shared memory regions that may live across the SCI ring or inside a node.
//
// Everything above this layer — the MPI device protocols, direct_pack_ff
// packing into "remote" memory, and one-sided communication — is written
// against these interfaces, which is exactly how the paper obtains its
// intra-node shared-memory results for free ("all of the work presented for
// the SCI interconnect can equally be applied to intra-node shared memory
// thanks to the abstraction of the SMI library").
package smi

import (
	"scimpich/internal/pack"
	"scimpich/internal/sci"
	"scimpich/internal/shmem"
	"scimpich/internal/sim"
)

// Mem is a shared memory region as seen by one process: possibly remote
// (costed with the SCI model) or node-local (costed with the memory model).
// It is exactly the operations the protocol stack issues, and each has one
// failure mode: on SCI, injected faults, revoked segments and unreachable
// owners come back as typed errors for the caller's recovery machinery;
// intra-node memory always returns nil.
type Mem interface {
	// Remote reports whether accesses cross the interconnect.
	Remote() bool
	// Bytes exposes the raw backing buffer. Only the owning side may use
	// it without cost accounting (e.g. to unpack out of its own port).
	Bytes() []byte
	// WriteStream writes src contiguously at off (stream-buffer friendly).
	WriteStream(p *sim.Proc, off int64, src []byte, srcWorkingSet int64) error
	// WritePut scatters src as accessSize-byte accesses stride apart on
	// the MPI put path (capped at the adapter's sustained put bandwidth).
	WritePut(p *sim.Proc, off int64, src []byte, accessSize, stride int64) error
	// Read copies len(dst) bytes from off into dst. A failed read leaves
	// dst untouched.
	Read(p *sim.Proc, off int64, dst []byte) error
	// ReadView bills a read of n bytes at off as Read does, a local one
	// as a copy from a working set of ws bytes, and returns the region's
	// bytes in place, for the caller to consume before it yields. A failed
	// read returns no bytes.
	ReadView(p *sim.Proc, off, n, ws int64) ([]byte, error)
	// Sync is the transfer-check barrier: it guarantees that all writes
	// issued through this Mem have been delivered, then checks the
	// transfer status, with bounded retry/backoff on SCI (see
	// sci.Mapping.Sync). Free on intra-node memory.
	Sync(p *sim.Proc) error
	// BlockWriter starts a batched block-wise write session (the
	// direct_pack_ff write path).
	BlockWriter(p *sim.Proc, workingSet int64) BlockWriter
	// DMAWrite submits an asynchronous DMA transfer when the transport has
	// a DMA engine, returning its request and true; (nil, false) means DMA
	// is unavailable and the caller should fall back to PIO. The request's
	// Wait returns nil or the typed submission or transfer error.
	DMAWrite(p *sim.Proc, off int64, src []byte) (*sci.DMARequest, bool)
	// DMAWriteSG submits a scatter-gather DMA transfer when the transport
	// has a descriptor-list engine: every descriptor gathers Len bytes at
	// SrcOff of src and lands them at base+DstOff of the region. src and
	// descs must stay valid until the request's Wait returns. (nil, false)
	// means the caller should fall back to a CPU pack path.
	DMAWriteSG(p *sim.Proc, base int64, src []byte, descs []pack.Descriptor) (*sci.DMARequest, bool)
}

// BlockWriter receives a sequence of contiguous blocks at ascending offsets
// and charges their cost on Flush, which returns the first deposit or
// transfer error.
type BlockWriter interface {
	Write(off int64, src []byte)
	Flush() error
}

// --- SCI adapter ---

type sciMem struct {
	m *sci.Mapping
}

// FromSCI wraps an SCI mapping as an SMI region.
func FromSCI(m *sci.Mapping) Mem { return sciMem{m} }

func (s sciMem) Remote() bool  { return s.m.Remote() }
func (s sciMem) Bytes() []byte { return s.m.Segment().Local() }
func (s sciMem) WriteStream(p *sim.Proc, off int64, src []byte, ws int64) error {
	return s.m.WriteStream(p, off, src, ws)
}
func (s sciMem) WritePut(p *sim.Proc, off int64, src []byte, a, st int64) error {
	return s.m.WritePut(p, off, src, a, st)
}
func (s sciMem) Read(p *sim.Proc, off int64, dst []byte) error { return s.m.Read(p, off, dst) }
func (s sciMem) ReadView(p *sim.Proc, off, n, ws int64) ([]byte, error) {
	return s.m.ReadView(p, off, n, ws)
}
func (s sciMem) Sync(p *sim.Proc) error                        { return s.m.Sync(p) }
func (s sciMem) BlockWriter(p *sim.Proc, ws int64) BlockWriter { return s.m.NewBlockWriter(p, ws) }
func (s sciMem) DMAWrite(p *sim.Proc, off int64, src []byte) (*sci.DMARequest, bool) {
	if !s.m.Remote() {
		return nil, false
	}
	return s.m.DMAWrite(p, off, src), true
}
func (s sciMem) DMAWriteSG(p *sim.Proc, base int64, src []byte, descs []pack.Descriptor) (*sci.DMARequest, bool) {
	if !s.m.Remote() {
		return nil, false
	}
	return s.m.DMAWriteSG(p, base, src, descs), true
}

// --- Intra-node adapter ---

type shmMem struct {
	r *shmem.Region
}

// FromShm wraps an intra-node shared region as an SMI region.
func FromShm(r *shmem.Region) Mem { return shmMem{r} }

func (s shmMem) Remote() bool  { return false }
func (s shmMem) Bytes() []byte { return s.r.Local() }
func (s shmMem) WriteStream(p *sim.Proc, off int64, src []byte, ws int64) error {
	s.r.WriteStream(p, off, src, ws)
	return nil
}
func (s shmMem) WritePut(p *sim.Proc, off int64, src []byte, a, st int64) error {
	s.r.WriteStrided(p, off, src, a, st)
	return nil
}
func (s shmMem) Read(p *sim.Proc, off int64, dst []byte) error {
	s.r.Read(p, off, dst)
	return nil
}
func (s shmMem) ReadView(p *sim.Proc, off, n, ws int64) ([]byte, error) {
	return s.r.ReadView(p, off, n, ws), nil
}
func (s shmMem) Sync(p *sim.Proc) error { return nil }
func (s shmMem) BlockWriter(p *sim.Proc, ws int64) BlockWriter {
	return reliableBW{s.r.NewBlockWriter(p, ws)}
}
func (s shmMem) DMAWrite(p *sim.Proc, off int64, src []byte) (*sci.DMARequest, bool) {
	return nil, false // intra-node memory has no DMA engine
}
func (s shmMem) DMAWriteSG(p *sim.Proc, base int64, src []byte, descs []pack.Descriptor) (*sci.DMARequest, bool) {
	return nil, false
}

// reliableBW adapts the block writer of intra-node memory, which cannot
// fail, to the fallible BlockWriter interface.
type reliableBW struct {
	bw *shmem.BlockWriter
}

func (r reliableBW) Write(off int64, src []byte) { r.bw.Write(off, src) }
func (r reliableBW) Flush() error                { r.bw.Flush(); return nil }
