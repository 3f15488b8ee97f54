package mpi

import (
	"time"

	"scimpich/internal/sci"
	"scimpich/internal/shmem"
	"scimpich/internal/smi"
)

// SharedSeg is memory a rank has allocated for direct remote access
// (MPI_Alloc_mem backed by the SCI driver / an intra-node shared region).
// One backing array is visible through all transports.
type SharedSeg struct {
	w      *World
	owner  int // world rank
	buf    []byte
	seg    *sci.Segment  // non-nil on multi-node clusters
	region *shmem.Region // intra-node view
}

// AllocShared allocates size bytes of remotely accessible memory owned by
// the calling rank.
func (c *Comm) AllocShared(size int64) *SharedSeg {
	return c.w.allocShared(c.WorldRank(), size)
}

// allocShared builds a shared segment owned by a world rank (also used by
// the collective engine for its one-sided windows).
func (w *World) allocShared(owner int, size int64) *SharedSeg {
	s := &SharedSeg{w: w, owner: owner, buf: make([]byte, size)}
	node := w.ranks[owner].node
	s.region = w.buses[node].AllocBacked(s.buf)
	if w.ic != nil {
		s.seg = w.ic.Node(node).ExportBuffer(s.buf)
	}
	return s
}

// Size returns the allocation size.
func (s *SharedSeg) Size() int64 { return int64(len(s.buf)) }

// Bytes returns the owner's raw view (no cost accounting; owner-side
// initialization only).
func (s *SharedSeg) Bytes() []byte { return s.buf }

// MapFrom returns the access view of the segment for the given rank: the
// local region for the owner and node-local peers, an SCI mapping for
// remote peers.
func (s *SharedSeg) MapFrom(rank int) smi.Mem {
	w := s.w
	fromNode := w.ranks[rank].node
	ownerNode := w.ranks[s.owner].node
	if fromNode == ownerNode {
		return smi.FromShm(s.region)
	}
	return smi.FromSCI(w.ic.Node(fromNode).MustImport(ownerNode, s.seg.ID()))
}

// LockLatency returns the one-way cost of a shared-memory lock operation
// between two ranks: a cache-coherent flag exchange inside a node, a remote
// read-modify-write across the ring (the techniques of the paper's [14]).
func (w *World) LockLatency(owner, from int) time.Duration {
	if w.ranks[owner].node == w.ranks[from].node {
		return 600 * time.Nanosecond
	}
	// A remote lock costs a stalled read plus a posted write.
	return sci.PIOReadStall + w.cfg.SCI.PIOWriteLatency
}
