package mpi

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"scimpich/internal/allocwin"
	"scimpich/internal/flow"
	"scimpich/internal/obs"
	"scimpich/internal/ring"
	"scimpich/internal/torus"
)

// smallTorus is a 4x4x4 = 64-node machine whose dz supports 1/2/4 shards.
func smallTorus(shards int) TorusConfig {
	cfg := DefaultTorusConfig(4, 4, 4, shards)
	cfg.ChunkBytes = 16 << 10
	return cfg
}

func TestTorusAllreduceSequentialCompletes(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallTorus(2)
	cfg.Registry = reg
	m := NewTorusWorldOn(NewTorusOracle(cfg), cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.End <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.Steps != 2*(res.Nodes-1) {
		t.Fatalf("steps = %d, want %d", res.Steps, 2*(res.Nodes-1))
	}
	wantChunks := int64(res.Nodes * res.Steps)
	if got := reg.Counter("mpi.torus.chunks").Value(); got != wantChunks {
		t.Fatalf("mpi.torus.chunks = %d, want %d", got, wantChunks)
	}
	if got := reg.Counter("mpi.torus.bytes").Value(); got != wantChunks*cfg.ChunkBytes {
		t.Fatalf("mpi.torus.bytes = %d, want %d", got, wantChunks*cfg.ChunkBytes)
	}
}

func TestTorusAllreduceShardedCompletes(t *testing.T) {
	cfg := smallTorus(4)
	m := NewTorusWorldOn(NewTorusFabric(cfg), cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows == 0 {
		t.Fatal("sharded run executed no windows")
	}
}

type torusOut struct {
	res     TorusResult
	dump    []byte
	metrics string           // the registry's WriteText dump
	hist    obs.HistSnapshot // flow.transfer.ns, sum and buckets included
}

func runTorus(t *testing.T, m *TorusWorld, reg *obs.Registry) torusOut {
	t.Helper()
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	reg.WriteText(&metrics)
	return torusOut{
		res:     res,
		dump:    m.FlightDump(),
		metrics: metrics.String(),
		hist:    reg.Histogram("flow.transfer.ns").Snapshot(),
	}
}

// solverWork matches the registry lines that count a flow network's own
// work: solves, heap visits and the most flows one network held at once.
// They depend on how many networks the partition splits the flows among, so
// only a one-shard run reads them as the oracle's single network does.
var solverWork = regexp.MustCompile(`(?m)^\S+ +flow\.(solves|heap_visits|active\.max) .*\n`)

// TestTorusCrossEngineDeterminism is the differential-testing gate of the
// sharded engine: the same seeded program must produce the identical final
// virtual time, identical flight-dump bytes, the identical registry dump
// (every counter, gauge and histogram line but solverWork's; the shards'
// transfer histograms merged) and the identical checksum on the sequential oracle and on the
// sharded engine at every shard count.
func TestTorusCrossEngineDeterminism(t *testing.T) {
	mk := func(shards int, sharded bool) (*TorusWorld, *obs.Registry) {
		cfg := smallTorus(shards)
		cfg.SampleEvery = 16
		cfg.Registry = obs.NewRegistry()
		if sharded {
			return NewTorusWorldOn(NewTorusFabric(cfg), cfg), cfg.Registry
		}
		return NewTorusWorldOn(NewTorusOracle(cfg), cfg), cfg.Registry
	}
	om, oreg := mk(2, false)
	oracle := runTorus(t, om, oreg)
	if oracle.res.End <= 0 || len(oracle.dump) == 0 || oracle.hist.Count == 0 {
		t.Fatal("oracle run produced no output")
	}
	for _, shards := range []int{1, 2, 4} {
		gm, greg := mk(shards, true)
		got := runTorus(t, gm, greg)
		if got.res.End != oracle.res.End {
			t.Errorf("shards=%d: end %v != oracle %v", shards, got.res.End, oracle.res.End)
		}
		if got.res.Checksum != oracle.res.Checksum {
			t.Errorf("shards=%d: checksum %#x != oracle %#x", shards, got.res.Checksum, oracle.res.Checksum)
		}
		if !bytes.Equal(got.dump, oracle.dump) {
			t.Errorf("shards=%d: flight dump differs from oracle (%d vs %d bytes)",
				shards, len(got.dump), len(oracle.dump))
		}
		gotM, wantM := got.metrics, oracle.metrics
		if shards > 1 {
			gotM, wantM = solverWork.ReplaceAllString(gotM, ""), solverWork.ReplaceAllString(wantM, "")
		}
		if gotM != wantM {
			t.Errorf("shards=%d: registry dump\n%s\nwant the oracle's\n%s", shards, gotM, wantM)
		}
		if got.hist != oracle.hist {
			t.Errorf("shards=%d: transfer histogram %+v != oracle %+v", shards, got.hist, oracle.hist)
		}
	}
}

// TestTorusShardedRepeatDeterminism: repeated parallel runs are
// byte-identical — the schedule must not depend on OS goroutine timing.
func TestTorusShardedRepeatDeterminism(t *testing.T) {
	mk := func() (*TorusWorld, *obs.Registry) {
		cfg := smallTorus(4)
		cfg.SampleEvery = 16
		cfg.Registry = obs.NewRegistry()
		return NewTorusWorldOn(NewTorusFabric(cfg), cfg), cfg.Registry
	}
	bm, breg := mk()
	base := runTorus(t, bm, breg)
	for i := 0; i < 3; i++ {
		gm, greg := mk()
		got := runTorus(t, gm, greg)
		if got.res.End != base.res.End || !bytes.Equal(got.dump, base.dump) {
			t.Fatalf("repeat %d diverged: end %v vs %v", i, got.res.End, base.res.End)
		}
	}
}

// torusLookaheadOracle derives the conservative lookahead of a partition
// from a built topology: the minimum latency among links crossing it,
// falling back to the configured segment latency when no link crosses
// (single shard).
func torusLookaheadOracle(top *torus.Topology, assign []int, segment time.Duration) time.Duration {
	if la := flow.MinLatency(top.CrossShardLinks(assign)); la > 0 {
		return la
	}
	return segment
}

// TestTorusLookaheadDerivation: the fabric constructors take the segment
// latency as their lookahead without building the machine, and that is the
// lookahead derived from the built topology's cross-partition links at
// every shard count and latency. A partition the machine cannot take still
// panics.
func TestTorusLookaheadDerivation(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, lat := range []time.Duration{0, 70 * time.Nanosecond, 123 * time.Nanosecond} {
			cfg := smallTorus(shards)
			cfg.SegmentLatency = lat
			top := torus.New(cfg.DX, cfg.DY, cfg.DZ, ring.BandwidthForMHz(ring.DefaultLinkMHz), nil).SetLinkLatency(lat)
			want := torusLookaheadOracle(top, top.PartitionZ(shards), lat)
			if got := NewTorusOracle(cfg).Lookahead(); got != want {
				t.Errorf("shards=%d latency=%v: oracle lookahead %v, want %v", shards, lat, got, want)
			}
			if lat == 0 {
				// A sharded engine cannot run on a zero lookahead.
				wantPanic(t, "sim: sharded engine needs a positive lookahead", func() { NewTorusFabric(cfg) })
			} else if got := NewTorusFabric(cfg).Lookahead(); got != want {
				t.Errorf("shards=%d latency=%v: sharded lookahead %v, want %v", shards, lat, got, want)
			}
		}
	}
	const indivisible = "torus: 3 shards do not evenly divide dz=4"
	wantPanic(t, indivisible, func() { NewTorusOracle(smallTorus(3)) })
	wantPanic(t, indivisible, func() { NewTorusFabric(smallTorus(3)) })
	wantPanic(t, "mpi: torus machine needs at least two nodes", func() { NewTorusOracle(DefaultTorusConfig(1, 1, 1, 1)) })
}

// wantPanic fails t unless fn panics with the value want.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Errorf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

// TestTorusRoutesAndResultUnchanged: each node's route, cut from the
// machine's one hop table, is link for link the torus route to its
// successor, and a run on the oracle keeps its virtual end, checksum and
// event count — pinned for the smallest legal machine (two nodes, where the
// one reduce-scatter step is also the last), an uneven 3x4x5 one and the
// 6x6x6 one, as they were when every node held the whole vector.
func TestTorusRoutesAndResultUnchanged(t *testing.T) {
	for _, pin := range []struct {
		d        [3]int
		end      time.Duration
		checksum uint64
		events   uint64
	}{
		{[3]int{1, 1, 2}, 1016402 * time.Nanosecond, 0x579ac1e7a4fbc117, 8},
		{[3]int{3, 4, 5}, 59971218 * time.Nanosecond, 0x11d96e9d6bab9023, 7375},
		{[3]int{6, 6, 6}, 218532310 * time.Nanosecond, 0xf078cac4d90e74ca, 93956},
	} {
		d := pin.d
		cfg := DefaultTorusConfig(d[0], d[1], d[2], 1)
		m := NewTorusWorldOn(NewTorusOracle(cfg), cfg)
		for i := range m.nodes {
			nd := &m.nodes[i]
			want := flow.Path(m.top.Route(i, nd.next)...)
			if !slices.Equal(nd.route, want) {
				t.Fatalf("%v: node %d route %v, want %v", d, i, nd.route, want)
			}
			if cap(nd.route) != len(nd.route) {
				t.Fatalf("%v: node %d route row has room to grow into its neighbour's", d, i)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.End != pin.end || res.Checksum != pin.checksum || res.Events != pin.events {
			t.Errorf("%v: end %v, checksum %#x, %d events; want %v, %#x, %d",
				d, res.End, res.Checksum, res.Events, pin.end, pin.checksum, pin.events)
		}
	}
}

// TestTorusLandingCheckCanFail: a node checks each chunk against the
// machine's want as it lands, so a want entry that is off by one fails the
// run naming that chunk, on the oracle and on two shards alike.
func TestTorusLandingCheckCanFail(t *testing.T) {
	const bad = 5
	for _, sharded := range []bool{false, true} {
		cfg := smallTorus(2)
		fabric := NewTorusOracle(cfg)
		if sharded {
			fabric = NewTorusFabric(cfg)
		}
		m := NewTorusWorldOn(fabric, cfg)
		reduced := m.want[bad]
		m.want[bad]++
		_, err := m.Run()
		want := fmt.Sprintf("mpi: torus node 0 chunk %d = %#x, want %#x", bad, reduced, reduced+1)
		if err == nil || err.Error() != want {
			t.Errorf("sharded=%v: error %v, want %q", sharded, err, want)
		}
	}
}

// torusRunCost returns the objects one torus run allocates, construction
// included, and its bytes per node.
func torusRunCost(t *testing.T, cfg TorusConfig) (objects, perNode uint64) {
	t.Helper()
	fabric := NewTorusOracle
	if cfg.Shards > 1 {
		fabric = NewTorusFabric
	}
	win := allocwin.New(t)
	win.Open()
	res, err := NewTorusWorldOn(fabric(cfg), cfg).Run()
	win.Close()
	if err != nil {
		t.Fatal(err)
	}
	perNode = win.Bytes() / uint64(res.Nodes)
	t.Logf("%dx%dx%d on %d shards: %d objects, %d bytes (%d per node) for %d nodes x %d steps", cfg.DX, cfg.DY, cfg.DZ,
		cfg.Shards, win.Objects(), win.Bytes(), perNode, res.Nodes, res.Steps)
	return win.Objects(), perNode
}

// TestAllocsTorusRunBudget pins a torus run to a constant number of objects,
// whatever the machine's size: the topology is one slab of links and one of
// ringlets, every per-node record is a row of one slab per kind sized at
// construction, and each network takes its flows in one block sized for one
// flow per node; the event heap grows only with the event blocks. A 4x4x4
// and a 6x6x6 run measure 42 and 49 or 50 objects, so both are held to 56
// (the larger plus 15 %), and the 216-node run to at most 20 more than the
// 64-node one: nothing is paid per node, nor per step and node (a 4x4x4
// run has 64 x 126 = 8 064 of those, and before flows and deliveries were
// recycled it allocated five objects for each). Two shards have their own
// bound, 347 measured plus 15 %: the sharded engine's window exchange
// allocates as it sorts each window's cross-shard messages.
//
// Bytes per node must not grow with the machine either: a node carries the
// chunk in flight, not an n-entry vector. The two runs measure 1 188 and
// 1 475 B per node, so each is held to 1 700 (the larger plus 15 %) and the
// 216-node run to 1.4 times the 64-node one (1.24 measured; what still grows
// is the sample logs and routes, which lengthen with the run and the
// torus). With a whole vector per node the runs read 1 798 and 3 354 B, a
// ratio of 1.87, and fail both bounds.
func TestAllocsTorusRunBudget(t *testing.T) {
	const oneShard, twoShards, perNodeBytes, perNodeGrowth = 56, 400, 1700, 1.4
	small, smallPerNode := torusRunCost(t, DefaultTorusConfig(4, 4, 4, 1))
	large, largePerNode := torusRunCost(t, DefaultTorusConfig(6, 6, 6, 1))
	if small > oneShard || large > oneShard {
		t.Errorf("one shard: 64 nodes %d objects, 216 nodes %d; budget is %d", small, large, oneShard)
	}
	if large > small+20 {
		t.Errorf("216 nodes allocate %d objects, 64 nodes %d: the run is paying per node", large, small)
	}
	if smallPerNode > perNodeBytes || largePerNode > perNodeBytes {
		t.Errorf("one shard: 64 nodes %d B per node, 216 nodes %d; budget is %d", smallPerNode, largePerNode, perNodeBytes)
	}
	if float64(largePerNode) > perNodeGrowth*float64(smallPerNode) {
		t.Errorf("216 nodes allocate %d B per node, 64 nodes %d: more than %.1fx, a node's state grows with the machine",
			largePerNode, smallPerNode, perNodeGrowth)
	}
	if got, _ := torusRunCost(t, smallTorus(2)); got > twoShards {
		t.Errorf("two shards: %d objects, budget is %d", got, twoShards)
	}
}

// TestWorldRefusesShardedFabric: a world's ranks are processes, and a
// sharded engine runs none, so NewWorldOn refuses a sharded fabric when it
// is called, before it builds anything or starts a goroutine.
func TestWorldRefusesShardedFabric(t *testing.T) {
	f := NewTorusFabric(smallTorus(2))
	before := runtime.NumGoroutine()
	wantPanic(t, shardedWorldRule, func() { NewWorldOn(f, DefaultConfig(2, 1)) })
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("the refused world started %d goroutines", n-before)
	}
	if end := f.Run(); end != 0 || f.Events() != 0 {
		t.Errorf("the refused world left work queued: ran to %v in %d events", end, f.Events())
	}
}
