package mpi

import (
	"time"

	"scimpich/internal/sim"
)

// PathPolicy selects how the rendezvous sender picks the deposit engine
// for non-contiguous chunks on a remote-memory transport.
type PathPolicy int

const (
	// PathAdaptive (the default) predicts the cheapest of direct_pack_ff,
	// staged pack-and-stream and scatter-gather DMA per chunk from the
	// cost models, then refines the prediction with per-peer EWMA
	// bandwidth estimates of the paths actually exercised.
	PathAdaptive PathPolicy = iota
	// PathPIO forces direct_pack_ff deposits (PIO block writes).
	PathPIO
	// PathStaged forces the staged path: cursor-pack into local scratch,
	// then one contiguous PIO stream.
	PathStaged
	// PathDMA forces scatter-gather DMA deposits where the transport has a
	// descriptor-list engine (contiguous chunks use the plain DMA engine).
	PathDMA
	// PathStatic, the legacy static thresholds (UseFF decides ff vs
	// generic), deposits ff chunks as PathPIO forces them.
	PathStatic = PathPIO
)

func (p PathPolicy) String() string {
	switch p {
	case PathAdaptive:
		return "adaptive"
	case PathPIO:
		return "pio"
	case PathStaged:
		return "staged"
	case PathDMA:
		return "dma"
	default:
		return "unknown"
	}
}

// depositPath is one deposit engine the adaptive chooser ranks. All three
// linearize in the ff cursor's leaf-major order, so the receiver's ff
// unpack is oblivious to the choice (the generic definition-order pipeline
// is a separate rendezvous mode, not a per-chunk option).
type depositPath int

const (
	// depositFF packs straight into remote memory (direct_pack_ff).
	depositFF depositPath = iota
	// depositStaged cursor-packs into local scratch, then streams once.
	depositStaged
	// depositSG builds a descriptor list and offloads to the SG DMA engine.
	depositSG

	depositPathCount
)

func (d depositPath) String() string {
	switch d {
	case depositFF:
		return "pio-ff"
	case depositStaged:
		return "staged"
	case depositSG:
		return "dma-sg"
	default:
		return "unknown"
	}
}

// defaultPathEWMA is the blend factor of both bandwidth estimators: the
// deposit chooser's per-peer one and the collective chooser's per-world one.
const defaultPathEWMA = 0.25

// ewma folds a bandwidth sample into the running estimate prev (0 = none
// yet).
func ewma(prev, sample float64) float64 {
	if prev > 0 {
		return defaultPathEWMA*sample + (1-defaultPathEWMA)*prev
	}
	return sample
}

// modelDeposit is the cost-model prior for depositing an n-byte chunk of
// blocks contiguous blocks (average avgBlock bytes) on a remote SCI peer.
// The formulas mirror what the charging code of each path actually bills,
// so the chooser starts out consistent with the simulator and only departs
// from it as measurements arrive.
func (c *Comm) modelDeposit(path depositPath, n, avgBlock, blocks int64) time.Duration {
	sci := &c.rk.w.cfg.SCI
	switch path {
	case depositFF:
		// Per-block PIO issue plus gather-gap streaming at the block size.
		return time.Duration(blocks)*sci.WriteIssueOverhead +
			sim.RateDuration(n, sci.StreamWriteBW(avgBlock))
	case depositStaged:
		// Local cursor pack (ff cost model), then one full-speed stream.
		return c.mem().BlockCopyCostFF(n, avgBlock, 2*n) +
			sci.WriteIssueOverhead + sim.RateDuration(n, sci.StreamWriteBW(n))
	case depositSG:
		// Descriptor build on the CPU, then the engine's startup,
		// per-descriptor and merged-run streaming costs. The rendezvous
		// destination is one contiguous run.
		return 2*sci.WriteIssueOverhead + time.Duration(blocks)*sci.DMASGBuild +
			sci.SGTransferCost(int(blocks), n, n)
	default:
		panic("mpi: unknown deposit path")
	}
}

// predictDeposit estimates the duration of a deposit: the per-peer EWMA
// bandwidth when the path has been exercised, the cost-model prior before
// that. out.rdvLock is held, so the EWMA state needs no further locking.
func (c *Comm) predictDeposit(out *sendPort, path depositPath, n, avgBlock, blocks int64) time.Duration {
	if bw := out.paths[path]; bw > 0 {
		return sim.RateDuration(n, bw)
	}
	return c.modelDeposit(path, n, avgBlock, blocks)
}

// chooseDeposit ranks the candidate paths for one chunk and returns the
// predicted-cheapest; forced policies (PathPIO/PathStaged/PathDMA) bypass
// the ranking.
func (c *Comm) chooseDeposit(out *sendPort, n, avgBlock, blocks int64) depositPath {
	switch c.rk.w.protocol().Path {
	case PathPIO:
		return depositFF
	case PathStaged:
		return depositStaged
	case PathDMA:
		return depositSG
	}
	best, bestCost := depositFF, c.predictDeposit(out, depositFF, n, avgBlock, blocks)
	if cost := c.predictDeposit(out, depositStaged, n, avgBlock, blocks); cost < bestCost {
		best, bestCost = depositStaged, cost
	}
	if cost := c.predictDeposit(out, depositSG, n, avgBlock, blocks); cost < bestCost {
		best = depositSG
	}
	return best
}

// observeDeposit folds a completed deposit into the per-peer EWMA
// bandwidth estimate of its path (out.rdvLock held).
func (c *Comm) observeDeposit(out *sendPort, path depositPath, n int64, elapsed time.Duration) {
	if n <= 0 || elapsed <= 0 {
		return
	}
	out.paths[path] = ewma(out.paths[path], float64(n)/elapsed.Seconds())
}
