package mpi

import (
	"bytes"
	"testing"
	"time"

	"scimpich/internal/allocwin"
	"scimpich/internal/obs"
	"scimpich/internal/ring"
	"scimpich/internal/sci"
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
	chunks  int64
	bytes   int64
	flowB   int64
	histN   uint64
	histMax int64
}

func runTorus(t *testing.T, m *TorusWorld, reg *obs.Registry) torusOut {
	t.Helper()
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	hs := reg.Histogram("flow.transfer.ns").Snapshot()
	return torusOut{
		res:     res,
		dump:    m.FlightDump(),
		chunks:  reg.Counter("mpi.torus.chunks").Value(),
		bytes:   reg.Counter("mpi.torus.bytes").Value(),
		flowB:   reg.Counter("flow.bytes").Value(),
		histN:   uint64(hs.Count),
		histMax: hs.Max,
	}
}

// TestTorusCrossEngineDeterminism is the differential-testing gate of the
// sharded engine: the same seeded program must produce the identical final
// virtual time, identical flight-dump bytes, identical metric counters and
// the identical checksum on the sequential oracle and on the sharded engine
// at every shard count.
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
	if oracle.res.End <= 0 || len(oracle.dump) == 0 {
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
		if got.chunks != oracle.chunks || got.bytes != oracle.bytes || got.flowB != oracle.flowB {
			t.Errorf("shards=%d: counters (%d,%d,%d) != oracle (%d,%d,%d)", shards,
				got.chunks, got.bytes, got.flowB, oracle.chunks, oracle.bytes, oracle.flowB)
		}
		if got.histN != oracle.histN || got.histMax != oracle.histMax {
			t.Errorf("shards=%d: transfer histogram (%d,%d) != oracle (%d,%d)", shards,
				got.histN, got.histMax, oracle.histN, oracle.histMax)
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

// TestTorusLookaheadDerivation: the engine's lookahead comes from the
// cross-partition link latencies.
func TestTorusLookaheadDerivation(t *testing.T) {
	cfg := smallTorus(4)
	mkTop := func(c TorusConfig) (*torus.Topology, []int) {
		top := torus.New(c.DX, c.DY, c.DZ, ring.BandwidthForMHz(sci.DefaultConfig(8).LinkMHz), nil).
			SetLinkLatency(c.SegmentLatency)
		return top, top.PartitionZ(c.Shards)
	}
	top, assign := mkTop(cfg)
	if la := TorusLookahead(top, assign, cfg.SegmentLatency); la != cfg.SegmentLatency {
		t.Fatalf("lookahead = %v, want %v", la, cfg.SegmentLatency)
	}
	// Single-shard partition has no cross links; the fallback applies.
	cfg1 := smallTorus(1)
	top1, assign1 := mkTop(cfg1)
	if la := TorusLookahead(top1, assign1, 123*time.Nanosecond); la != 123*time.Nanosecond {
		t.Fatalf("single-shard lookahead fallback = %v", la)
	}
}

// TestAllocsTorusRunBudget pins a torus run to its construction cost: the
// topology, a node and its route per node, and the flows, deliveries and
// events of one step, all recycled from then on — about 30 objects per node
// (35 under the race detector, with a second shard). Nothing is allocated
// per step and node: a 4x4x4 run has 64 x 126 = 8 064 of those, and before
// flows and deliveries were recycled it allocated five objects for each.
func TestAllocsTorusRunBudget(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := smallTorus(shards)
		fabric := NewTorusOracle
		if shards > 1 {
			fabric = NewTorusFabric
		}
		win := allocwin.New(t)
		win.Open()
		res, err := NewTorusWorldOn(fabric(cfg), cfg).Run()
		win.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, budget := win.Objects(), uint64(40*res.Nodes)
		t.Logf("shards=%d: %d objects, %d bytes for %d nodes x %d steps", shards, got,
			win.Bytes(), res.Nodes, res.Steps)
		if got >= budget {
			t.Errorf("shards=%d: %d objects allocated, budget is 40 per node (%d): the run is paying per step",
				shards, got, budget)
		}
	}
}
