// Package rmem is a replicated remote-memory (key/value paging) service
// built on the one-sided communication layer: every rank exports a window
// holding a set of shards, each shard is replicated on a primary and a
// backup rank, and clients deposit and fetch fixed-size slots with MPI_Put
// and MPI_Get. A commit is one fence: its store barrier makes every staged
// deposit visible at both replicas at once, and only then does the origin
// acknowledge the writes into its committed ledger.
//
// The service survives node crashes: when an operation or fence fails, the
// survivors agree on the shrunken membership (Comm.Shrink), abandon the
// old window, rebind the one-sided engine on the new communicator,
// recompute shard placement, and re-replicate every shard from its
// surviving replica before resuming. Staged-but-uncommitted writes are
// replayed from the origin after re-replication, so a committed write is
// never lost and an acknowledged commit survives the crash of either
// replica holder.
package rmem

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/osc"
)

// Config shapes the shard layout of the service. The key space is exactly
// the Shards*SlotsPerShard keys [0, Keys()): key k lives in shard k%Shards
// at slot k/Shards, so distinct keys never alias a slot.
type Config struct {
	// Shards is the number of replicated shard regions.
	Shards int
	// SlotsPerShard is the number of fixed-size value slots per shard.
	SlotsPerShard int
	// ValBytes is the value payload size of a slot.
	ValBytes int64
	// OSC is the transfer policy of the underlying window; SyncTimeout
	// (or mpi.AutoTimeout) bounds every handler round trip and fence.
	OSC osc.Config
}

// DefaultConfig is the calibrated service layout: 8 shards of 32 slots of
// 32-byte values (a 256-key space), with every watchdog on the scaled
// automatic bound.
func DefaultConfig() Config {
	oc := osc.DefaultConfig()
	oc.SyncTimeout = mpi.AutoTimeout
	return Config{Shards: 8, SlotsPerShard: 32, ValBytes: 32, OSC: oc}
}

// Keys returns the size of the exact key space.
func (c Config) Keys() int64 { return int64(c.Shards * c.SlotsPerShard) }

// slotHeader is the per-slot metadata: the origin's sequence number and the
// key, so a fetch can detect an empty or foreign slot.
const slotHeader = 16

func (c Config) slotBytes() int64  { return slotHeader + c.ValBytes }
func (c Config) shardBytes() int64 { return int64(c.SlotsPerShard) * c.slotBytes() }
func (c Config) winBytes() int64   { return int64(c.Shards) * c.shardBytes() }

// ErrShardLost reports a shard whose primary and backup both crashed before
// re-replication could re-home it — data loss the protocol cannot mask.
type ErrShardLost struct{ Shard int }

func (e ErrShardLost) Error() string {
	return fmt.Sprintf("rmem: shard %d lost both replicas", e.Shard)
}

// ErrKeyRange reports a Put or Get of a key outside [0, Keys()): its slot
// would be another key's.
type ErrKeyRange struct{ Key, Keys int64 }

func (e ErrKeyRange) Error() string {
	return fmt.Sprintf("rmem: key %d outside the key space [0, %d)", e.Key, e.Keys)
}

// ErrValueSize reports a Put of a value larger than the slot payload.
type ErrValueSize struct{ Bytes, Max int64 }

func (e ErrValueSize) Error() string {
	return fmt.Sprintf("rmem: value of %d bytes exceeds the slot payload of %d", e.Bytes, e.Max)
}

// Service is one rank's handle on the replicated store. All ranks of the
// communicator are symmetric: each serves its window shards and runs its
// own client operations.
type Service struct {
	cfg Config
	c   *mpi.Comm
	sys *osc.System
	seg *mpi.SharedSeg
	win *osc.Win

	// ranks holds the current group membership as world ranks; placement
	// is computed from it and it is the "previous membership" input of the
	// next re-replication.
	ranks []int

	// The origin-side state is dense over the fixed key space, indexed by
	// key (or shard) and walked in ascending order — the order the
	// simulated timeline of a commit, a replay and a verification follows.
	// A sequence number of 0 marks an empty entry (Put numbers from 1).
	//
	// pendSeq[k] and pendVal[k*ValBytes:] hold key k's staged,
	// not-yet-committed deposit, kept for replay across a failover.
	// committed[k] is the ledger of the last acknowledged
	// sequence number of k, which verification reads back through the
	// window (a mismatch is a lost committed write); ncommitted counts its
	// entries.
	epoch      int64
	nextSeq    int64
	pendSeq    []int64
	pendVal    []byte
	committed  []int64
	ncommitted int
	// slot is the scratch of the slot image a Put, Get or replay moves: it
	// is copied out (or read) before the operation returns.
	slot []byte

	// Failovers counts completed recoveries on this rank; LostShards
	// counts shards that lost both replicas (zero under single crashes).
	Failovers  int
	LostShards int

	// fl is the owning rank's flight-recorder ring (nil-safe); the service
	// records its stage/commit/replay protocol on the rank's timeline.
	fl *flight.Ring
	// putBytes and commitStaged are unit-tagged distribution metrics (nil
	// without a registry): deposited value sizes and staged writes per
	// commit.
	putBytes     *obs.Histogram
	commitStaged *obs.Histogram
}

// New collectively creates the service over the communicator and opens the
// first access epoch. Every rank must call it.
func New(c *mpi.Comm, cfg Config) (*Service, error) {
	s := &Service{
		cfg:       cfg,
		c:         c,
		sys:       osc.NewSystem(c),
		seg:       c.AllocShared(cfg.winBytes()),
		pendSeq:   make([]int64, cfg.Keys()),
		pendVal:   make([]byte, cfg.Keys()*cfg.ValBytes),
		committed: make([]int64, cfg.Keys()),
		slot:      make([]byte, cfg.slotBytes()),

		fl:           c.FlightRing(),
		putBytes:     c.Metrics().HistogramUnit("rmem.put.bytes", obs.UnitBytes),
		commitStaged: c.Metrics().HistogramUnit("rmem.commit.staged", obs.UnitCount),
	}
	s.ranks = groupWorlds(c)
	s.win = s.sys.CreateShared(s.seg, cfg.OSC)
	if err := s.win.Fence(); err != nil {
		return nil, err
	}
	return s, nil
}

func groupWorlds(c *mpi.Comm) []int {
	out := make([]int, c.Size())
	for i := range out {
		out[i] = c.GroupToWorld(i)
	}
	return out
}

// primary and backup return the group ranks holding shard sh under the
// current membership; the two are distinct whenever the group has at least
// two members.
func (s *Service) primary(sh int) int { return sh % s.c.Size() }
func (s *Service) backup(sh int) int  { return (sh + 1) % s.c.Size() }

func (s *Service) shardOf(key int64) int { return int(key % int64(s.cfg.Shards)) }

// slotOff returns the window offset of key's slot; key is in [0, Keys()).
func (s *Service) slotOff(key int64) int64 {
	sh := s.shardOf(key)
	slot := key / int64(s.cfg.Shards)
	return int64(sh)*s.cfg.shardBytes() + slot*s.cfg.slotBytes()
}

// checkKey returns ErrKeyRange unless key is in [0, Keys()).
func (s *Service) checkKey(key int64) error {
	if key < 0 || key >= s.cfg.Keys() {
		return ErrKeyRange{Key: key, Keys: s.cfg.Keys()}
	}
	return nil
}

// pendingVal returns key's staged value bytes.
func (s *Service) pendingVal(key int64) []byte {
	return s.pendVal[key*s.cfg.ValBytes : (key+1)*s.cfg.ValBytes]
}

// fillSlot writes the slot image of (seq, key, val) into the scratch slot;
// the payload bytes past val are zero.
func (s *Service) fillSlot(seq, key int64, val []byte) []byte {
	slot := s.slot
	binary.LittleEndian.PutUint64(slot[0:], uint64(seq))
	binary.LittleEndian.PutUint64(slot[8:], uint64(key))
	clear(slot[slotHeader+copy(slot[slotHeader:], val):])
	return slot
}

// Put stages a deposit of val under key: the slot (sequence number, key,
// value) is written to both replicas of the key's shard and remembered for
// replay until the next successful Commit. Each key must be written only by
// its owning origin (the workload partitions the key space); concurrent
// writers to one key would race on the slot. A key outside the key space
// returns ErrKeyRange, a value larger than the slot payload ErrValueSize.
func (s *Service) Put(key int64, val []byte) error {
	if err := s.checkKey(key); err != nil {
		return err
	}
	if int64(len(val)) > s.cfg.ValBytes {
		return ErrValueSize{Bytes: int64(len(val)), Max: s.cfg.ValBytes}
	}
	s.nextSeq++
	slot := s.fillSlot(s.nextSeq, key, val)
	sh := s.shardOf(key)
	off := s.slotOff(key)
	for _, tgt := range []int{s.primary(sh), s.backup(sh)} {
		if err := s.win.Put(slot, len(slot), datatype.Byte, tgt, off); err != nil {
			return err
		}
	}
	s.pendSeq[key] = s.nextSeq
	copy(s.pendingVal(key), slot[slotHeader:])
	s.fl.Record(s.c.Proc().Now(), flight.KPutStage, key, s.nextSeq, int64(sh), 0)
	s.putBytes.Observe(int64(len(val)))
	return nil
}

// Get fetches the slot of key from the shard's primary. It returns the
// stored sequence number (zero for a never-written slot) and copies the
// value payload into val when the slot holds the requested key. A key
// outside the key space returns ErrKeyRange.
func (s *Service) Get(key int64, val []byte) (int64, error) {
	if err := s.checkKey(key); err != nil {
		return 0, err
	}
	slot := s.slot
	if err := s.win.Get(slot, len(slot), datatype.Byte, s.primary(s.shardOf(key)), s.slotOff(key)); err != nil {
		return 0, err
	}
	seq := int64(binary.LittleEndian.Uint64(slot[0:]))
	gotKey := int64(binary.LittleEndian.Uint64(slot[8:]))
	if seq == 0 || gotKey != key {
		return 0, nil
	}
	copy(val, slot[slotHeader:])
	return seq, nil
}

// Commit closes the epoch. The fence is the commit: its store barrier
// delivers every staged deposit at both replicas at once, and only after
// it returns are the staged writes acknowledged into the committed ledger.
// Commit is collective: all live ranks fence together.
func (s *Service) Commit() error {
	if err := s.win.Fence(); err != nil {
		return err
	}
	s.epoch++
	var staged int64
	for key, seq := range s.pendSeq {
		if seq == 0 {
			continue
		}
		staged++
		if s.committed[key] == 0 {
			s.ncommitted++
		}
		s.committed[key] = seq
	}
	clear(s.pendSeq)
	s.fl.Record(s.c.Proc().Now(), flight.KCommit, s.epoch, staged, 0, 0)
	s.commitStaged.Observe(staged)
	return nil
}

// Recover is the failover path, called after any operation or commit
// returned an error. All surviving ranks must call it (they all observe the
// failure: direct operations fail fast on the dead node, fences expire).
// It agrees on the shrunken membership, rebuilds the window over the new
// communicator, re-homes every shard from its surviving replica, replays
// this origin's staged writes and commits them. On a rank that was itself
// revoked it returns the *mpi.RevokedRankError — that rank must stop.
func (s *Service) Recover() error {
	err := s.recover()
	if err != nil {
		s.fl.Fail(s.c.Proc().Now(), flight.OpRecover, -1, err)
	}
	return err
}

func (s *Service) recover() error {
	nc, err := s.c.Shrink()
	if err != nil {
		return err
	}
	prev := s.ranks
	s.win.Abandon()
	s.sys.Rebind(nc)
	s.c = nc
	s.ranks = groupWorlds(nc)
	// Same backing segment, fresh window over the new communicator: local
	// shard contents survive in place, only the remote views and the
	// exchange are rebuilt (the old window id is never reused, so stale
	// requests are refused, not misdelivered).
	s.win = s.sys.CreateShared(s.seg, s.cfg.OSC)
	if err := s.win.Fence(); err != nil {
		return err
	}
	if err := s.rereplicate(prev); err != nil {
		return err
	}
	if err := s.win.Fence(); err != nil {
		return err
	}
	for k, seq := range s.pendSeq {
		if seq == 0 {
			continue
		}
		key := int64(k)
		sh := s.shardOf(key)
		s.fl.Record(s.c.Proc().Now(), flight.KReplay, key, seq, int64(sh), 0)
		slot := s.fillSlot(seq, key, s.pendingVal(key))
		for _, tgt := range []int{s.primary(sh), s.backup(sh)} {
			if err := s.win.Put(slot, len(slot), datatype.Byte, tgt, s.slotOff(key)); err != nil {
				return err
			}
		}
	}
	if err := s.Commit(); err != nil {
		return err
	}
	s.Failovers++
	return nil
}

// rereplicate re-homes every shard under the new membership: for each
// shard, the surviving holder of the old placement (the old primary, or the
// old backup if the primary died) pushes the whole shard region to the
// shard's new primary and backup. Shards whose
// both old holders died are counted in LostShards.
func (s *Service) rereplicate(prev []int) error {
	alive := make(map[int]bool, len(s.ranks))
	for _, w := range s.ranks {
		alive[w] = true
	}
	me := s.c.WorldRank()
	for sh := 0; sh < s.cfg.Shards; sh++ {
		oldP := prev[sh%len(prev)]
		oldB := prev[(sh+1)%len(prev)]
		holder := -1
		switch {
		case alive[oldP]:
			holder = oldP
		case alive[oldB]:
			holder = oldB
		default:
			s.LostShards++
			continue
		}
		if holder != me {
			continue
		}
		off := int64(sh) * s.cfg.shardBytes()
		region := s.seg.Bytes()[off : off+s.cfg.shardBytes()]
		for _, tgt := range []int{s.primary(sh), s.backup(sh)} {
			if err := s.win.Put(region, len(region), datatype.Byte, tgt, off); err != nil {
				return err
			}
		}
	}
	return nil
}

// Verify reads every entry of the committed ledger back through the window
// (from each key's current primary) and returns the number of committed
// writes the store no longer serves — the headline durability gate, which
// must be zero.
func (s *Service) Verify() (lost int64, err error) {
	val := make([]byte, s.cfg.ValBytes)
	for k, want := range s.committed {
		if want == 0 {
			continue
		}
		key := int64(k)
		seq, gerr := s.Get(key, val)
		if gerr != nil {
			return lost, gerr
		}
		if seq != want {
			lost++
			s.fl.Record(s.c.Proc().Now(), flight.KWriteLost, key, want, seq, 0)
		}
	}
	return lost, nil
}

// CommittedCount returns the size of this origin's committed ledger.
func (s *Service) CommittedCount() int { return s.ncommitted }

// IsRevoked reports whether err is the typed revocation error a crashed
// rank receives from its own Recover.
func IsRevoked(err error) bool {
	var rev *mpi.RevokedRankError
	return errors.As(err, &rev)
}
