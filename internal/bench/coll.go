package bench

// The collective algorithm-selection benchmark behind BENCH_coll.json:
// bcast / allreduce / allgather / alltoall swept across payload sizes and
// cluster sizes with each algorithm family forced in turn (point-to-point
// tree/ring, recursive doubling, the bandwidth-optimal ring, one-sided
// window deposits), plus the adaptive chooser. The artifact is the
// regression gate for two claims: the chooser tracks the measured-best
// algorithm per size class, and one-sided deposits beat the P2P algorithms
// for large contiguous payloads. Forced rows pin Protocol.Coll exactly as
// the figure-7 drivers pin PathStatic, so the published figures never
// depend on the chooser.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
)

// CollResult is one (collective, nodes, size) row of the selection matrix.
// Forced-algorithm bandwidths are MiB/s of collective payload (total bytes
// a rank contributes or receives per operation); zero marks an algorithm
// family that does not implement the collective.
type CollResult struct {
	Coll  string `json:"coll"`
	Nodes int    `json:"nodes"`
	Bytes int64  `json:"bytes"`

	P2P      float64 `json:"p2p_mibs"`
	RecDbl   float64 `json:"recdbl_mibs,omitempty"`
	Ring     float64 `json:"ring_mibs,omitempty"`
	OneSided float64 `json:"onesided_mibs,omitempty"`

	// Adaptive chooser: achieved bandwidth and the algorithm it picked
	// (the majority of its per-call decisions).
	Adaptive float64 `json:"adaptive_mibs"`
	Chosen   string  `json:"chosen"`

	// Best is the measured-best forced algorithm among the chooser's
	// eligible candidates for this row.
	Best    float64 `json:"best_mibs"`
	BestAlg string  `json:"best_alg"`
}

// collCase describes one collective's sweep: the payload interpretation is
// per-operation total bytes (bcast/allreduce: the vector length;
// allgather/alltoall: per-peer block times peers). allreduce_inplace is
// allreduce with one buffer for send and recv.
type collCase struct {
	name  string
	algs  []mpi.CollAlg
	sizes []int64
}

// CollCases returns the default sweep of the suite.
func CollCases() []collCase {
	return []collCase{
		{"bcast", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided},
			[]int64{4 << 10, 64 << 10, 256 << 10, 2 << 20}},
		{"allreduce", []mpi.CollAlg{mpi.CollP2P, mpi.CollRecDbl, mpi.CollRing, mpi.CollOneSided},
			[]int64{4 << 10, 64 << 10, 256 << 10, 2 << 20}},
		{"allgather", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided},
			[]int64{4 << 10, 32 << 10, 128 << 10}},
		{"alltoall", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided},
			[]int64{4 << 10, 32 << 10, 128 << 10}},
		{"allreduce_inplace", []mpi.CollAlg{mpi.CollP2P, mpi.CollRecDbl, mpi.CollRing, mpi.CollOneSided},
			[]int64{256 << 10, 2 << 20}},
	}
}

// CollNodeCounts is the cluster-size axis of the sweep.
func CollNodeCounts() []int { return []int{2, 3, 4, 6, 8} }

// RunCollBench executes the collective selection matrix.
func RunCollBench(nodes []int) []CollResult { return runCollBench(nodes, math.MaxInt64) }

// runCollBench is the matrix restricted to payloads of at most maxBytes.
func runCollBench(nodes []int, maxBytes int64) []CollResult {
	var out []CollResult
	for _, cs := range CollCases() {
		for _, n := range nodes {
			for _, size := range cs.sizes {
				if size > maxBytes {
					continue
				}
				r := CollResult{Coll: cs.name, Nodes: n, Bytes: size}
				for _, alg := range cs.algs {
					if !collForcedEligible(cs.name, alg, n, size) {
						continue
					}
					bw := collBW(cs.name, n, size, alg, nil)
					switch alg {
					case mpi.CollP2P:
						r.P2P = bw
					case mpi.CollRecDbl:
						r.RecDbl = bw
					case mpi.CollRing:
						r.Ring = bw
					case mpi.CollOneSided:
						r.OneSided = bw
					}
					if bw > r.Best {
						r.Best, r.BestAlg = bw, alg.String()
					}
				}
				reg := obs.NewRegistry()
				r.Adaptive = collBW(cs.name, n, size, mpi.CollAuto, reg)
				r.Chosen = dominantCollAlg(reg, strings.TrimSuffix(cs.name, "_inplace"))
				out = append(out, r)
			}
		}
	}
	return out
}

// collForcedEligible mirrors the engine's eligibility rules so forced rows
// measure the algorithm itself, never its fallback: one-sided allreduce
// needs the scattered block inside a window half, one-sided
// allgather/alltoall the per-peer block inside a slot.
func collForcedEligible(coll string, alg mpi.CollAlg, nodes int, size int64) bool {
	proto := mpi.DefaultProtocol()
	switch {
	case alg != mpi.CollOneSided:
		return true
	case coll == "allreduce" || coll == "allreduce_inplace":
		return size/int64(nodes) <= proto.CollSlot/2
	case coll == "allgather" || coll == "alltoall":
		return size/int64(nodes) <= proto.CollSlot
	}
	return true
}

// collBW measures one collective's payload bandwidth with the algorithm
// family pinned (or chosen adaptively when alg is CollAuto). A non-nil
// registry collects the run's metrics.
func collBW(coll string, nodes int, size int64, alg mpi.CollAlg, reg *obs.Registry) float64 {
	cfg := instrument(mpi.DefaultConfig(nodes, 1))
	cfg.Protocol.Coll = alg
	if reg != nil {
		cfg.Metrics = reg
	}
	const reps = 4
	blk := size / int64(nodes)
	var elapsed time.Duration
	mpi.Run(cfg, healthy(func(c *mpi.Comm) (err error) {
		buf := make([]byte, size)
		buf2 := make([]byte, size)
		err = errors.Join(err, c.Barrier())
		start := c.WtimeDuration()
		for i := 0; i < reps; i++ {
			switch coll {
			case "bcast":
				err = errors.Join(err, c.Bcast(buf, int(size), datatype.Byte, 0))
			case "allreduce":
				err = errors.Join(err, c.Allreduce(buf, buf2, int(size)/8, datatype.Float64, mpi.OpSum))
			case "allreduce_inplace":
				err = errors.Join(err, c.Allreduce(buf, buf, int(size)/8, datatype.Float64, mpi.OpSum))
			case "allgather":
				err = errors.Join(err, c.Allgather(buf[:blk], int(blk), datatype.Byte, buf2))
			case "alltoall":
				err = errors.Join(err, c.Alltoall(buf, int(blk), datatype.Byte, buf2))
			}
		}
		err = errors.Join(err, c.Barrier())
		if c.Rank() == 0 {
			elapsed = c.WtimeDuration() - start
		}
		return err
	}))
	return BWMiB(size*reps, elapsed)
}

// dominantCollAlg returns the algorithm the adaptive chooser picked for
// the majority of one collective's calls, from its mpi.coll.alg.chosen
// counters.
func dominantCollAlg(reg *obs.Registry, coll string) string {
	best, bestN := "none", int64(0)
	for _, a := range []string{"p2p", "recdbl", "ring", "onesided"} {
		if n := reg.Counter(obs.Name("mpi.coll.alg.chosen", "coll", coll, "alg", a)).Value(); n > bestN {
			best, bestN = a, n
		}
	}
	return best
}

// FormatColl renders the matrix as an aligned text table. An algorithm
// family that does not implement a collective (0 in the result, omitted
// from the JSON) prints as "-".
func FormatColl(results []CollResult) string {
	mibs := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	out := "coll (MiB/s):\n"
	out += fmt.Sprintf("  %-9s %5s %9s %9s %9s %9s %9s %9s  %-8s %-8s\n",
		"coll", "nodes", "bytes", "p2p", "recdbl", "ring", "onesided", "adaptive", "chosen", "best")
	misses, worst, at := 0, 0.0, ""
	for _, r := range results {
		out += fmt.Sprintf("  %-9s %5d %9d %9s %9s %9s %9s %9s  %-8s %-8s\n",
			r.Coll, r.Nodes, r.Bytes, mibs(r.P2P), mibs(r.RecDbl), mibs(r.Ring), mibs(r.OneSided),
			mibs(r.Adaptive), r.Chosen, r.BestAlg)
		if r.Best > 0 && r.Adaptive < r.Best {
			misses++
			if short := 1 - r.Adaptive/r.Best; short > worst {
				worst, at = short, fmt.Sprintf(" (%s, %d nodes, %d B)", r.Coll, r.Nodes, r.Bytes)
			}
		}
	}
	return out + fmt.Sprintf("  chooser misses %d of %d cells, worst shortfall %.1f %%%s\n",
		misses, len(results), 100*worst, at)
}
