package bench

import (
	"fmt"
	"time"

	"scimpich/internal/flow"
	"scimpich/internal/ring"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
	"scimpich/internal/torus"
)

// The §6 scaling projection: "With the increased link frequency, a limit
// of 8 nodes per ringlet seems reasonable, which gives a 512 nodes system
// when using 3D-torus topology." The experiment loads an 8x8x8 torus with
// the Table 2 average scenario (each node one sustained put at ring
// distance 4 within its x-line) and compares the per-node bandwidth with
// the same workload on a single 8-node ringlet and — as the cautionary
// contrast — on one giant 512-node ring.

// TorusRow is one topology's outcome.
type TorusRow struct {
	Topology string  `json:"topology"`
	Nodes    int     `json:"nodes"`
	PerNode  float64 `json:"per_node_mibs"`
}

// TorusOutlook is the §6 outlook in both forms: the analytic projection
// (steady-state flow rates) and the measured run — the whole machine
// executing a chunked ring allreduce on the sharded engine.
type TorusOutlook struct {
	Projection []TorusRow   `json:"projection"`
	Measured   EngineResult `json:"measured"`
}

// TorusMHz is the link frequency the paper's projection assumes.
const TorusMHz = 200

// TorusTables formats the outlook.
func TorusTables(o TorusOutlook) (projection, measured *Table) {
	projection = &Table{
		Title:  fmt.Sprintf("§6 outlook: 512-node scaling projection (%d MHz links, distance-4 puts)", TorusMHz),
		Header: "topology\tnodes\tper-node MiB/s",
	}
	for _, r := range o.Projection {
		projection.Add("%s\t%d\t%.1f", r.Topology, r.Nodes, r.PerNode)
	}
	m := o.Measured
	measured = &Table{
		Title:  fmt.Sprintf("measured: %d-node ring allreduce, sharded engine (%d z-plane shards)", m.Nodes, m.Shards),
		Header: "nodes\tshards\tsteps\tevents\twindows\tvirtual\tchecksum",
	}
	measured.Add("%d\t%d\t%d\t%d\t%d\t%v\t%s",
		m.Nodes, m.Shards, m.Steps, m.Events, m.Windows, time.Duration(m.VirtualNS), m.Checksum)
	return projection, measured
}

// RunTorusProjection runs the three scenarios at the given link frequency
// (the paper's projection assumes the 200 MHz links).
func RunTorusProjection(mhz float64) []TorusRow {
	return []TorusRow{
		{Topology: "8-node ringlet", Nodes: 8, PerNode: ringletScenario(mhz)},
		{Topology: "8x8x8 3D torus", Nodes: 512, PerNode: torusScenario(mhz)},
		{Topology: "single 512-ring", Nodes: 512, PerNode: giantRingScenario(mhz)},
	}
}

const projBytes = 16 << 20

// ringletScenario: the familiar 8-node, distance-4 pattern.
func ringletScenario(mhz float64) float64 {
	perNode, _, _ := ringScenario(mhz, RingNodes, 1, false, 4)
	return perNode
}

// torusScenario: 512 nodes, each sending distance 4 within its own x-ring.
// Per-ring load matches the single-ringlet scenario exactly; the point is
// that it does so for every one of the 64 x-rings simultaneously.
func torusScenario(mhz float64) float64 {
	to := torus.New(8, 8, 8, ring.BandwidthForMHz(mhz), flow.SCIRingCongestion{})
	echo := sci.DefaultConfig(RingNodes).EchoFraction
	var paths [][]flow.Hop
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				a := to.NodeID(x, y, z)
				b := to.NodeID((x+4)%8, y, z)
				// The echo returns on the x-ring.
				paths = append(paths, putPath(to.Route(a, b), to.Route(b, a), echo))
			}
		}
	}
	return runFlows(paths)
}

// giantRingScenario: 512 nodes on ONE ring, each sending distance 256 —
// what scaling without the torus would look like.
func giantRingScenario(mhz float64) float64 {
	r := ring.New(512, ring.BandwidthForMHz(mhz), flow.SCIRingCongestion{})
	echo := sci.DefaultConfig(RingNodes).EchoFraction
	var paths [][]flow.Hop
	for n := 0; n < 512; n++ {
		dst := (n + 256) % 512
		paths = append(paths, putPath(r.Route(n, dst), r.Route(dst, n), echo))
	}
	return runFlows(paths)
}

// runFlows drives one sustained put per path to completion, each capped at
// the adapter's sustained put rate, and returns per-node MiB/s.
func runFlows(paths [][]flow.Hop) float64 {
	f := sim.NewLocalFabric(1, time.Microsecond)
	e := f.Locale(0)
	net := flow.NewNetworkOn(e)
	net.SetMetrics(obsMetrics)
	var elapsed time.Duration
	e.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		flows := net.StartBatch(paths, projBytes, sci.DefaultConfig(RingNodes).SustainedPutBW)
		for _, f := range flows {
			p.Await(f.Done())
		}
		elapsed = p.Now() - start
	})
	f.Run()
	net.Publish(obsMetrics)
	return BWMiB(int64(len(paths))*projBytes, elapsed) / float64(len(paths))
}
