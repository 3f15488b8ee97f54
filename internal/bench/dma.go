package bench

// The DMA path-selection benchmark behind BENCH_dma.json: the strided-vector
// workload of Figure 7 re-run with each rendezvous deposit engine forced in
// turn (direct_pack_ff PIO, staged pack-and-stream, scatter-gather DMA, the
// legacy generic pipeline), plus the adaptive chooser, per block size. The
// artifact is the regression gate for two claims: descriptor-list DMA beats
// the generic pack-and-stream baseline once blocks average >= 64 B, and the
// adaptive chooser tracks the measured-best engine per size class.

import (
	"fmt"

	"scimpich/internal/mpi"
	"scimpich/internal/obs"
)

// DMAPathResult is one block-size row of the path-selection matrix.
type DMAPathResult struct {
	BlockSize int64 `json:"block_size"`
	// Forced-engine bandwidths, MiB/s.
	PIOFF   float64 `json:"pio_ff_mibs"`
	Staged  float64 `json:"staged_mibs"`
	DMASG   float64 `json:"dma_sg_mibs"`
	Generic float64 `json:"generic_mibs"`
	// Adaptive chooser: achieved bandwidth and the engine it settled on
	// (the majority of its per-chunk decisions).
	Adaptive float64 `json:"adaptive_mibs"`
	Chosen   string  `json:"chosen"`
	// Best is the measured-best forced engine among the chooser's three
	// candidates (the generic pipeline is a separate rendezvous mode, not
	// a per-chunk option).
	Best     float64 `json:"best_mibs"`
	BestPath string  `json:"best_path"`
}

// DMAPathBlockSizes is the default sweep of the suite.
func DMAPathBlockSizes() []int64 {
	return []int64{8, 16, 32, 64, 128, 256, 1024, 8192}
}

// RunDMAPathBench executes the path-selection matrix between two nodes.
func RunDMAPathBench(blockSizes []int64) []DMAPathResult {
	out := make([]DMAPathResult, 0, len(blockSizes))
	for _, bs := range blockSizes {
		r := DMAPathResult{BlockSize: bs}
		r.PIOFF = dmaPathBW(bs, true, mpi.PathPIO, nil)
		r.Staged = dmaPathBW(bs, true, mpi.PathStaged, nil)
		r.DMASG = dmaPathBW(bs, true, mpi.PathDMA, nil)
		r.Generic = dmaPathBW(bs, false, mpi.PathStatic, nil)
		reg := obs.NewRegistry()
		r.Adaptive = dmaPathBW(bs, true, mpi.PathAdaptive, reg)
		r.Chosen = dominantPath(reg)
		r.Best, r.BestPath = r.PIOFF, "pio-ff"
		if r.Staged > r.Best {
			r.Best, r.BestPath = r.Staged, "staged"
		}
		if r.DMASG > r.Best {
			r.Best, r.BestPath = r.DMASG, "dma-sg"
		}
		out = append(out, r)
	}
	return out
}

// dmaPathBW measures the strided-vector bandwidth with one deposit policy
// pinned. A non-nil registry collects the run's metrics (the adaptive
// measurement reads its per-chunk decisions back out of it).
func dmaPathBW(bs int64, useFF bool, path mpi.PathPolicy, reg *obs.Registry) float64 {
	cfg := instrument(mpi.DefaultConfig(2, 1))
	cfg.Protocol.UseFF = useFF
	cfg.Protocol.Path = path
	if reg != nil {
		cfg.Metrics = reg
	}
	return vectorBW(cfg, bs)
}

// dominantPath returns the deposit engine the adaptive chooser picked for
// the majority of chunks in a run, from its mpi.path.chosen counters.
func dominantPath(reg *obs.Registry) string {
	best, bestN := "none", int64(0)
	for _, p := range []string{"pio-ff", "staged", "dma-sg"} {
		if n := reg.Counter(obs.Name("mpi.path.chosen", "path", p)).Value(); n > bestN {
			best, bestN = p, n
		}
	}
	return best
}

// FormatDMAPath renders the matrix as an aligned text table.
func FormatDMAPath(results []DMAPathResult) string {
	out := "dma (MiB/s):\n"
	out += fmt.Sprintf("  %9s %9s %9s %9s %9s %9s  %-8s %-8s\n",
		"blocksize", "pio-ff", "staged", "dma-sg", "generic", "adaptive", "chosen", "best")
	for _, r := range results {
		out += fmt.Sprintf("  %9d %9.1f %9.1f %9.1f %9.1f %9.1f  %-8s %-8s\n",
			r.BlockSize, r.PIOFF, r.Staged, r.DMASG, r.Generic, r.Adaptive, r.Chosen, r.BestPath)
	}
	return out
}
