package bench

import (
	"fmt"
	"slices"
	"time"

	"scimpich/internal/flow"
	"scimpich/internal/platform"
	"scimpich/internal/ring"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// Ring-scaling experiments: Table 2 (per-node bandwidth of the one-sided
// put workload for different segment-utilization levels, ring load and
// efficiency) and Figure 12 (scaling of one-sided strided communication on
// the platforms with hardware support).
//
// These run at the interconnect level: the workload is the steady-state
// bulk phase of the sparse put benchmark, so each process contributes one
// long flow at the adapter's sustained put rate, routed over the real ring
// segments (with flow-control echo traffic on the return path) and resolved
// by the max-min-fair flow model with the Table 2 congestion calibration.

// RingNodes is the physical ringlet size of the testbed.
const RingNodes = 8

// Table2Row is one row of Table 2.
type Table2Row struct {
	ActiveNodes int `json:"nodes"`
	// 1 transfer/segment scenario (neighbour transfers).
	PerNode1 float64 `json:"per_node_1_mibs"`
	Acc1     float64 `json:"acc_1_mibs"`
	// 8 transfers/segment scenario (full-loop transfers, dual-SMP nodes).
	PerNode8 float64 `json:"per_node_8_mibs"`
	Acc8     float64 `json:"acc_8_mibs"`
	Load     float64 `json:"load"` // offered ring load, fraction of nominal
	Eff      float64 `json:"eff"`  // achieved fraction of nominal
}

// Table2 is Table 2 at one link frequency.
type Table2 struct {
	MHz  float64     `json:"link_mhz"`
	Rows []Table2Row `json:"rows"`
}

// Table2Table formats one link frequency's Table 2.
func Table2Table(t2 Table2) *Table {
	t := &Table{
		Title: fmt.Sprintf("Table 2: scalability for different segment utilization levels (%.0f MHz links, %.0f MiB/s nominal)",
			t2.MHz, ring.BandwidthForMHz(t2.MHz)/MiB),
		Header: "nodes\t1 tr/seg p.node\tacc.\t8 tr/seg p.node\tacc.\tload\teff.",
	}
	for _, r := range t2.Rows {
		t.Add("%d\t%.2f\t%.1f\t%.2f\t%.1f\t%.1f%%\t%.1f%%",
			r.ActiveNodes, r.PerNode1, r.Acc1, r.PerNode8, r.Acc8, r.Load*100, r.Eff*100)
	}
	return t
}

// RunTable2 reproduces Table 2 for the given link frequency (166 MHz in the
// paper's main experiment; 200 MHz for the rerun).
func RunTable2(mhz float64) []Table2Row {
	rows := make([]Table2Row, 0, 5)
	for n := 4; n <= 8; n++ {
		perNode1, _, _ := ringScenario(mhz, n, 2, true, 1)
		perNode8, acc8, _ := ringScenario(mhz, n, 2, false, 0)
		nominal := ring.BandwidthForMHz(mhz) / MiB
		attempted := float64(n) * (sci.SustainedPutBW / MiB)
		rows = append(rows, Table2Row{
			ActiveNodes: n,
			PerNode1:    perNode1,
			Acc1:        perNode1 * float64(n),
			PerNode8:    perNode8,
			Acc8:        acc8,
			Load:        attempted / nominal,
			Eff:         acc8 / nominal,
		})
	}
	return rows
}

// ringScenario runs one steady-state scenario: activeNodes nodes, each with
// procsPerNode processes putting concurrently. neighbour selects the
// 1-transfer-per-segment pattern (distance 1); otherwise full-loop
// transfers produce the maximal segment utilization, or — when distance > 0
// — the given ring distance. It returns the per-node and accumulated
// bandwidths in MiB/s plus the highest per-segment offered load (demand as
// a fraction of nominal segment bandwidth).
func ringScenario(mhz float64, activeNodes, procsPerNode int, neighbour bool, distance int) (float64, float64, float64) {
	f := sim.NewLocalFabric(1, time.Microsecond)
	e := f.Locale(0)
	cfg := sci.DefaultConfig(RingNodes)
	cfg.LinkMHz = mhz
	ic := sci.New(e, instrumentSCI(cfg))
	srcCap := sci.SustainedPutBW / float64(procsPerNode)
	const bytesPerFlow = 32 << 20

	var paths [][]flow.Hop
	for n := 0; n < activeNodes; n++ {
		var path []flow.Hop
		switch {
		case neighbour:
			next := (n + 1) % RingNodes
			path = putPath(ic.Ring.Route(n, next), ic.Ring.Route(next, n))
		case distance > 0:
			dst := (n + distance) % RingNodes
			path = putPath(ic.Ring.Route(n, dst), ic.Ring.Route(dst, n))
		default:
			// Full loop: the transfer crosses every segment (maximal
			// utilization); the "echo" path is empty.
			path = flow.Path(ic.Ring.FullLoop(n)...)
		}
		for pr := 0; pr < procsPerNode; pr++ {
			paths = append(paths, path)
		}
	}

	// Highest per-segment offered load: every flow contributes its source
	// cap times its weight on each segment it crosses.
	segDemand := make(map[*flow.Link]float64)
	for _, path := range paths {
		for _, h := range path {
			segDemand[h.Link] += float64(srcCap * h.Weight)
		}
	}
	maxSegLoad := 0.0
	nominal := ring.BandwidthForMHz(mhz)
	for _, d := range segDemand {
		if l := d / nominal; l > maxSegLoad {
			maxSegLoad = l
		}
	}

	var elapsed time.Duration
	e.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		flows := ic.Net.StartBatch(paths, bytesPerFlow, srcCap)
		for _, f := range flows {
			p.Await(f.Done())
		}
		elapsed = p.Now() - start
	})
	f.Run()
	ic.Publish(ic.Cfg.Metrics)

	total := int64(len(paths)) * bytesPerFlow
	acc := BWMiB(total, elapsed)
	return acc / float64(activeNodes), acc, maxSegLoad
}

// putPath is the path of one sustained put: the route to the target at full
// weight, then the flow-control echo traffic on the route back.
func putPath(out, back []*flow.Link) []flow.Hop {
	path := flow.Path(out...)
	for _, l := range back {
		path = append(path, flow.Hop{Link: l, Weight: sci.EchoFraction})
	}
	return path
}

// minFairness maps offered ring load to the ratio between the slowest
// process's bandwidth and the mean (Figure 12 plots "the minimum of the
// per-process maximum bandwidths"). SCI ringlets are position-unfair under
// saturation: nodes whose bypass FIFOs carry more passing traffic get less
// injection bandwidth. Calibrated so the 8-node point lands at the paper's
// 71.8 MiB/s.
func minFairness(load float64) float64 {
	curve := [][2]float64{{0.0, 1.0}, {0.60, 1.0}, {0.97, 0.62}, {1.60, 0.55}, {3.0, 0.55}}
	for i := 1; i < len(curve); i++ {
		if load <= curve[i][0] {
			x0, y0 := curve[i-1][0], curve[i-1][1]
			x1, y1 := curve[i][0], curve[i][1]
			t := (load - x0) / (x1 - x0)
			return y0 + float64(t*(y1-y0))
		}
	}
	return curve[len(curve)-1][1]
}

// ScalingPoint is one (processes, per-process bandwidth) sample.
type ScalingPoint struct {
	Procs int     `json:"procs"`
	BW    float64 `json:"mibs"`
}

// ScalingSeries is one platform's Figure 12 curve.
type ScalingSeries struct {
	ID     string         `json:"id"`
	Points []ScalingPoint `json:"points"`
}

// RunScaling reproduces Figure 12: per-process one-sided put bandwidth
// (minimum over processes) for the platforms with hardware-supported
// one-sided communication, at the given access size.
func RunScaling(accessSize int64) []ScalingSeries {
	var out []ScalingSeries

	// SCI-MPICH over SCI: dual nodes, segment utilization from the
	// average-distance pattern (distance ~ half the active span, capped at
	// the paper's utilization-4 scenario).
	sciSeries := ScalingSeries{ID: "M-S"}
	for n := 2; n <= RingNodes; n++ {
		d := n / 2
		if d > 4 {
			d = 4
		}
		if d < 1 {
			d = 1
		}
		perNode, _, segLoad := ringScenario(ring.DefaultLinkMHz, n, 2, false, d)
		perNode *= minFairness(segLoad)
		sciSeries.Points = append(sciSeries.Points, ScalingPoint{Procs: n, BW: perNode})
	}
	out = append(out, sciSeries)

	for _, pl := range []*platform.Platform{platform.CrayT3E(), platform.SunFireShm(), platform.LAMShm()} {
		s := ScalingSeries{ID: pl.ID}
		for p := 2; p <= pl.MaxProcs; p *= 2 {
			bw := pl.Scaling(p, accessSize)
			if bw == 0 {
				continue
			}
			s.Points = append(s.Points, ScalingPoint{Procs: p, BW: bw / MiB})
		}
		out = append(out, s)
	}
	return out
}

// ScalingFigure formats Figure 12 on a union x-axis.
func ScalingFigure(series []ScalingSeries) *Figure {
	seen := map[int]bool{}
	var xs []int
	for _, s := range series {
		for _, pt := range s.Points {
			if !seen[pt.Procs] {
				seen[pt.Procs] = true
				xs = append(xs, pt.Procs)
			}
		}
	}
	slices.Sort(xs)
	f := &Figure{
		Title:  "Figure 12: scaling of one-sided strided communication (per-process MiB/s, min over processes)",
		XLabel: "procs",
		YLabel: "MiB/s",
	}
	for _, x := range xs {
		f.X = append(f.X, float64(x))
	}
	for _, s := range series {
		vals := make([]float64, len(xs))
		for _, pt := range s.Points {
			for i, x := range xs {
				if x == pt.Procs {
					vals[i] = pt.BW
				}
			}
		}
		f.Series = append(f.Series, Series{Label: s.ID, Values: vals})
	}
	return f
}
