package sci

import (
	"fmt"
	"slices"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/memmodel"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// ErrOutOfRange is returned when an access falls outside the mapped segment.
type ErrOutOfRange struct {
	Off, Len, Size int64
}

func (e ErrOutOfRange) Error() string {
	return fmt.Sprintf("sci: access [%d, %d) outside segment of %d bytes", e.Off, e.Off+e.Len, e.Size)
}

// ErrSegmentLost is returned when a mapping's segment has been revoked
// (unmapped by its owner or withdrawn by the driver) while still in use.
type ErrSegmentLost struct {
	Owner, Seg int
}

func (e ErrSegmentLost) Error() string {
	return fmt.Sprintf("sci: segment %d of node %d was revoked", e.Seg, e.Owner)
}

// Segment is a region of a node's physical memory exported for remote
// access. The backing buffer is real: remote writes actually deposit bytes
// here, so every protocol built on top is testable for correctness. It is
// materialised on the first access (see memmodel.Backing): a segment that
// is exported but never read or written holds no host memory.
type Segment struct {
	owner   *Node
	mem     memmodel.Backing
	id      int32 // beside revoked, in one word: a world holds one per remote pair
	revoked bool
}

// Export allocates and exports a new segment of the given size on the node.
// (In the real system this memory comes from the SCI kernel driver; see the
// paper's discussion of MPI_Alloc_mem.)
func (n *Node) Export(size int64) *Segment {
	slab := make([]Segment, 1)
	n.ExportSlab(slab, size)
	return &slab[0]
}

// ExportSlab is one Export of size bytes per element of slab, in the caller's
// storage, for wiring code that exports a segment per peer: the ids are the
// consecutive ones len(slab) calls of Export would hand out. The node keeps
// a pointer to every element, so slab must not be reused.
func (n *Node) ExportSlab(slab []Segment, size int64) {
	if size < 0 {
		panic("sci: negative segment size")
	}
	n.segs = slices.Grow(n.segs, len(slab))
	for i := range slab {
		n.export(&slab[i], memmodel.Unbacked(size))
	}
}

// ReserveSegments makes room in every node's export table for perNode more
// segments, the tables of all nodes in one allocation, so that the exports
// which follow grow none of them.
func (ic *Interconnect) ReserveSegments(perNode int) {
	total := 0
	for i := range ic.nodes {
		total += len(ic.nodes[i].segs) + perNode
	}
	tables := make([]*Segment, total)
	for i := range ic.nodes {
		n := &ic.nodes[i]
		k := copy(tables, n.segs)
		n.segs, tables = tables[:k:k+perNode], tables[k+perNode:]
	}
}

// ExportBuffer exports an existing buffer as a segment (the paper's [13]:
// recent SCI drivers can expose arbitrary user memory). The caller keeps
// direct access to buf; windows use this to share one backing array between
// the SCI and intra-node views.
func (n *Node) ExportBuffer(buf []byte) *Segment {
	s := new(Segment)
	n.export(s, memmodel.BackedBy(buf))
	return s
}

// export registers s under the node's next id: ids are dense, per node, in
// export order, and index the segment table.
func (n *Node) export(s *Segment, mem memmodel.Backing) {
	*s = Segment{owner: n, id: int32(len(n.segs)), mem: mem}
	n.segs = append(n.segs, s)
}

// ID returns the segment's identifier, unique per owning node.
func (s *Segment) ID() int { return int(s.id) }

// Size returns the segment size in bytes.
func (s *Segment) Size() int64 { return s.mem.Size() }

// Local returns the owner's direct view of the segment memory. Only the
// owning node's processes should touch it; remote access goes through a
// Mapping. Like every access it materialises the memory.
func (s *Segment) Local() []byte { return s.mem.Bytes() }

// Mapping is a remote node's transparently mapped view of a segment. All
// remote loads and stores are performed through it and are charged with
// the SCI cost model.
type Mapping struct {
	from *Node
	seg  *Segment
}

// Import maps a segment exported by another node (or the same node: a
// self-import behaves like local shared memory) into node n's address
// space.
func (n *Node) Import(owner int, segID int) (*Mapping, error) {
	m := new(Mapping)
	if err := n.ImportInto(m, owner, segID); err != nil {
		return nil, err
	}
	return m, nil
}

// ImportInto is Import into the caller's storage (an element of a slab of
// mappings). On error *m is left as it was.
func (n *Node) ImportInto(m *Mapping, owner int, segID int) error {
	if owner < 0 || owner >= len(n.ic.nodes) {
		return fmt.Errorf("sci: import from unknown node %d", owner)
	}
	if n.ic.Cfg.Fault.TakeImportFailure(n.ic.E.Now(), owner, segID) {
		return &fault.Error{Kind: fault.ImportDenied, From: n.id, To: owner, At: n.ic.E.Now()}
	}
	if !n.ic.Alive(owner) {
		// Importing from a crashed node is a fault-reachable path (recovery
		// layers rebuild their windows after a crash), not a programming
		// error: surface the typed unreachability fault instead of panicking
		// in MustImport on the missing export table.
		n.surfaceFault(n.ic.E.Now(), fault.NodeUnreachable, owner, 0)
		return &fault.Error{Kind: fault.NodeUnreachable, From: n.id, To: owner, At: n.ic.E.Now()}
	}
	seg := n.ic.nodes[owner].segment(segID)
	if seg == nil {
		return fmt.Errorf("sci: node %d exports no segment %d", owner, segID)
	}
	*m = Mapping{from: n, seg: seg}
	return nil
}

// segment returns the exported segment with the given id; nil if the id was
// never handed out (negative, past the last export) or has been revoked.
func (n *Node) segment(id int) *Segment {
	if id < 0 || id >= len(n.segs) {
		return nil
	}
	return n.segs[id]
}

// MustImport is Import for wiring code where failure is a programming error.
func (n *Node) MustImport(owner, segID int) *Mapping {
	m, err := n.Import(owner, segID)
	if err != nil {
		panic(err)
	}
	return m
}

// Segment returns the mapped segment.
func (m *Mapping) Segment() *Segment { return m.seg }

// Remote reports whether the mapping crosses the ring.
func (m *Mapping) Remote() bool { return m.from != m.seg.owner }

// checkBackoff is the initial backoff of a failed transfer check, doubled
// per retry; checkRetryMax bounds the retries before Sync converts a
// persistently failing check into ErrConnectionLost.
const (
	checkBackoff  = 10 * time.Microsecond
	checkRetryMax = 4
)

// Sync is the transfer-check barrier (check-after-store-barrier, as
// SCI-MPICH performs it): a store barrier on the importing node, which
// delivers every write the node has posted (not just through this mapping),
// followed by a check of the adapter's transfer status toward the segment
// owner. Failed checks of retryable faults (CRC/sequence/link disturbance)
// are retried with exponential backoff from checkBackoff, bounded by
// checkRetryMax; exhausting the cap converts the persistent failure into
// ErrConnectionLost. Non-retryable failures (dead owner, revoked segment)
// surface immediately as their typed error.
func (m *Mapping) Sync(p *sim.Proc) error {
	from := m.from
	cfg := &from.ic.Cfg
	backoff := checkBackoff
	for attempt := 0; ; attempt++ {
		from.StoreBarrier(p)
		err := m.checkStatus(p)
		if err == nil {
			return nil
		}
		fe, ok := err.(*fault.Error)
		if !ok || !fe.Retryable() {
			return err
		}
		if attempt >= checkRetryMax {
			// Every failed check is a KFault of the plan's; the give-up is
			// the connection's own record.
			cfg.Flight.Actor(from.name).Record(p.Now(), flight.KConnLost,
				int64(from.id), int64(m.seg.owner.id), int64(attempt+1), 0)
			return ErrConnectionLost{From: from.id, To: m.seg.owner.id}
		}
		from.stats.CheckRetries++
		p.Sleep(backoff)
		backoff *= 2
	}
}

// checkStatus inspects the (simulated) adapter status registers for the
// path of this mapping after a store barrier.
func (m *Mapping) checkStatus(p *sim.Proc) error {
	if err := m.stateErr(); err != nil {
		return err
	}
	if !m.Remote() {
		return nil
	}
	owner := m.seg.owner
	if owner.dead {
		return ErrConnectionLost{From: m.from.id, To: owner.id}
	}
	if fe := m.from.ic.Cfg.Fault.DrawCheckError(p.Now(), m.from.id, owner.id); fe != nil {
		m.from.stats.TransferErrors++
		return fe
	}
	return nil
}

// accessErr is the first check of every access: the window must lie
// inside the segment (ErrOutOfRange) and the segment must still be exported
// (ErrSegmentLost). The bound is off > size-n, not off+n > size, which
// wraps for an offset near math.MaxInt64.
func (m *Mapping) accessErr(off, n int64) error {
	if off < 0 || n < 0 || off > m.seg.Size()-n {
		return ErrOutOfRange{Off: off, Len: n, Size: m.seg.Size()}
	}
	return m.stateErr()
}

// stateErr reports a revoked mapping as ErrSegmentLost.
func (m *Mapping) stateErr() error {
	if m.seg.revoked {
		return ErrSegmentLost{Owner: m.seg.owner.id, Seg: int(m.seg.id)}
	}
	return nil
}
