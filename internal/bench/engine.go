package bench

// The engine benchmark behind BENCH_engine.json. Two workloads, both built
// through the public fabric-first constructors in internal/mpi:
//
//   - "torus-allreduce": the §6-scale 512-node (8x8x8 torus) chunked ring
//     allreduce (mpi.TorusWorld), once on the sequential oracle with one
//     monolithic flow network — the baseline — and once per shard count on
//     the conservative-parallel ShardedEngine. Every sharded run must
//     reproduce the oracle's final virtual time, checksum and flight-dump
//     hash exactly (byte-identical schedule per seed).
//
//   - "mpi-allreduce": the full MPI protocol stack (short/eager/rendezvous
//     device, forced ring Allreduce) on the sequential engine, via
//     mpi.NewFabric + mpi.RunOn: its virtual time, reduction checksum,
//     flight-dump hash and event count pin the whole stack's schedule.
//
// The artifact holds only what the seed determines. Wall time, events/s and
// speedup beside ncpu are printed by FormatEngine and not written. Since the
// flow solver stopped scanning all flows (PR 20) a shard's network does no
// less work per flow than the sequential one, so the torus speedup is
// bounded by the host's CPUs and window overhead — no sharded row has beaten
// the sequential one on the 2-vCPU reference machine. An MPI world runs on
// one engine: it would occupy a single shard, where sharding only adds window
// overhead. The wall-clock cost of the engines is measured by benchmark/'s
// torus216_ring workload.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
)

// EngineResult is one workload/engine/shard-count row of the sharded-engine
// suite.
type EngineResult struct {
	Workload string `json:"workload"` // "torus-allreduce" or "mpi-allreduce"
	Engine   string `json:"engine"`   // "sequential" or "sharded"
	Shards   int    `json:"shards"`
	Nodes    int    `json:"nodes"`
	Steps    int    `json:"steps"`
	Events   uint64 `json:"events"`
	Windows  uint64 `json:"windows"`

	VirtualNS int64 `json:"virtual_ns"`
	WallNS    int64 `json:"-"` // host time of the run: printed, never written

	Checksum string `json:"checksum"` // reduced-vector wrapping sum, hex
	DumpFNV  string `json:"dump_fnv"` // FNV-1a of the merged flight dump

	// Gate: schedule determinism on every sharded row.
	GateDeterministic bool `json:"gate_deterministic,omitempty"`
}

// EngineDims and EngineShardCounts pin the benchmark scenario.
var (
	EngineDims        = [3]int{8, 8, 8}
	EngineShardCounts = []int{2, 4, 8}
)

// MPIStackRanks and MPIStackElems pin the full-stack workload: ranks
// int64 elements reduced with the forced ring algorithm, large enough that
// every block moves through the rendezvous protocol.
const (
	MPIStackRanks = 8
	MPIStackElems = 32 << 10 // 256 KiB vectors
	mpiStackIters = 2
)

func engineRow(cfg mpi.TorusConfig, sharded bool) (EngineResult, error) {
	cfg.Registry = obs.NewRegistry()
	var m *mpi.TorusWorld
	engine := "sequential"
	if sharded {
		m = mpi.NewTorusWorldOn(mpi.NewTorusFabric(cfg), cfg)
		engine = "sharded"
	} else {
		m = mpi.NewTorusWorldOn(mpi.NewTorusOracle(cfg), cfg)
	}
	start := time.Now()
	res, err := m.Run()
	wall := time.Since(start)
	if err != nil {
		return EngineResult{}, err
	}
	h := fnv.New64a()
	h.Write(m.FlightDump())
	r := EngineResult{
		Workload: "torus-allreduce",
		Engine:   engine, Shards: res.Shards, Nodes: res.Nodes, Steps: res.Steps,
		Events: res.Events, Windows: res.Windows,
		VirtualNS: int64(res.End), WallNS: int64(wall),
		Checksum: fmt.Sprintf("%016x", res.Checksum),
		DumpFNV:  fmt.Sprintf("%016x", h.Sum64()),
	}
	return r, nil
}

// mpiStackRow runs the full-stack workload: MPIStackRanks ranks on one
// SMP node each, forced ring Allreduce over MPIStackElems int64 elements,
// on the fabric Run would build.
func mpiStackRow() EngineResult {
	cfg := mpi.DefaultConfig(MPIStackRanks, 1)
	cfg.Protocol.Coll = mpi.CollRing
	rec := flight.New(256)
	cfg.Flight = rec
	f := mpi.NewFabric(cfg)

	sums := make([]uint64, MPIStackRanks)
	main := healthy(func(c *mpi.Comm) (err error) {
		me := c.Rank()
		send := make([]byte, MPIStackElems*8)
		recv := make([]byte, MPIStackElems*8)
		// splitmix64-seeded per-rank vector.
		x := uint64(me)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		for i := 0; i < MPIStackElems; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			binary.LittleEndian.PutUint64(send[i*8:], z)
		}
		for it := 0; it < mpiStackIters; it++ {
			err = errors.Join(err, c.Allreduce(send, recv, MPIStackElems, datatype.Int64, mpi.OpSum))
			copy(send, recv)
		}
		var sum uint64
		for i := 0; i < MPIStackElems; i++ {
			sum += binary.LittleEndian.Uint64(recv[i*8:])*0x100000001b3 + uint64(i)
		}
		sums[me] = sum
		return err
	})

	start := time.Now()
	end := mpi.RunOn(f, cfg, main)
	wall := time.Since(start)

	var checksum uint64
	for r, s := range sums {
		checksum += s * (uint64(r)*2 + 1)
	}
	var buf bytes.Buffer
	if d := rec.Snapshot("bench"); d != nil {
		d.WriteJSON(&buf)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())

	return EngineResult{
		Workload: "mpi-allreduce",
		Engine:   "sequential", Shards: 1, Nodes: MPIStackRanks,
		Steps:     mpiStackIters * 2 * (MPIStackRanks - 1),
		Events:    f.Events(),
		VirtualNS: int64(end), WallNS: int64(wall),
		Checksum: fmt.Sprintf("%016x", checksum),
		DumpFNV:  fmt.Sprintf("%016x", h.Sum64()),
	}
}

// RunEngineBenchAt runs the torus allreduce on a dx*dy*dz torus,
// sequentially and at each sharded configuration, then the full-stack MPI
// allreduce. Determinism against the sequential oracle is gated on every
// sharded row.
func RunEngineBenchAt(dx, dy, dz int, shardCounts []int) ([]EngineResult, bool) {
	seq, err := engineRow(mpi.DefaultTorusConfig(dx, dy, dz, 1), false)
	if err != nil {
		return nil, false
	}
	rows := []EngineResult{seq}
	ok := true
	for _, shards := range shardCounts {
		r, err := engineRow(mpi.DefaultTorusConfig(dx, dy, dz, shards), true)
		if err != nil {
			return rows, false
		}
		r.GateDeterministic = r.VirtualNS == seq.VirtualNS &&
			r.Checksum == seq.Checksum && r.DumpFNV == seq.DumpFNV
		ok = ok && r.GateDeterministic
		rows = append(rows, r)
	}
	return append(rows, mpiStackRow()), ok
}

// FormatEngine renders the sharded-engine suite as an aligned text table,
// with the wall-clock columns the artifact leaves out: events/s, and speedup
// over the sequential row of the same workload.
func FormatEngine(results []EngineResult) string {
	out := fmt.Sprintf("engine (512-node torus + full-stack MPI ring allreduce, ncpu=%d):\n", runtime.NumCPU())
	out += fmt.Sprintf("  %-15s %-10s %6s %8s %8s %12s %10s %10s %8s  %s\n",
		"workload", "engine", "shards", "events", "windows", "virtual", "wall", "ev/s", "speedup", "gates")
	var seqWall int64
	for _, r := range results {
		gates := "-"
		if r.Engine == "sharded" {
			gates = fmt.Sprintf("det=%v", r.GateDeterministic)
		} else {
			seqWall = r.WallNS
		}
		out += fmt.Sprintf("  %-15s %-10s %6d %8d %8d %12v %10v %10.0f %7.2fx  %s\n",
			r.Workload, r.Engine, r.Shards, r.Events, r.Windows,
			time.Duration(r.VirtualNS), time.Duration(r.WallNS).Round(time.Millisecond),
			float64(r.Events)/time.Duration(r.WallNS).Seconds(), float64(seqWall)/float64(r.WallNS), gates)
	}
	return out
}
