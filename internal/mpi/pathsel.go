package mpi

import (
	"time"

	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// PathPolicy selects how the rendezvous sender picks the deposit engine
// for non-contiguous chunks on a remote-memory transport.
type PathPolicy int

const (
	// PathAdaptive (the default) deposits each chunk by whichever of
	// direct_pack_ff, staged pack-and-stream and scatter-gather DMA the
	// cost models price cheapest for its size, average block and block
	// count; no history enters the choice.
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

// modelDeposit is the cost-model prior for depositing an n-byte chunk of
// blocks contiguous blocks (average avgBlock bytes) on a remote SCI peer.
// The formulas mirror what the charging code of each path actually bills
// (TestDepositPriorIsTheBill names the gaps), so ranking them is ranking the
// bills.
func (c *Comm) modelDeposit(path depositPath, n, avgBlock, blocks int64) time.Duration {
	cfg := &c.rk.w.cfg.SCI
	switch path {
	case depositFF:
		// Per-block PIO issue plus gather-gap streaming at the block size.
		return time.Duration(blocks)*sci.WriteIssueOverhead +
			sim.RateDuration(n, cfg.StreamWriteBW(avgBlock))
	case depositStaged:
		// Local cursor pack (ff cost model), then one full-speed stream.
		return c.mem().BlockCopyCostFF(n, avgBlock, 2*n) +
			sci.WriteIssueOverhead + sim.RateDuration(n, cfg.StreamWriteBW(n))
	case depositSG:
		// Descriptor build on the CPU, then the engine's startup,
		// per-descriptor and merged-run streaming costs. The rendezvous
		// destination is one contiguous run.
		return 2*sci.WriteIssueOverhead + time.Duration(blocks)*sci.DMASGBuild +
			cfg.SGTransferCost(int(blocks), n, n)
	default:
		panic("mpi: unknown deposit path")
	}
}

// chooseDeposit ranks the candidate paths for one chunk and returns the
// predicted-cheapest; forced policies (PathPIO/PathStaged/PathDMA) bypass
// the ranking.
func (c *Comm) chooseDeposit(n, avgBlock, blocks int64) depositPath {
	switch c.rk.w.protocol().Path {
	case PathPIO:
		return depositFF
	case PathStaged:
		return depositStaged
	case PathDMA:
		return depositSG
	}
	best, bestCost := depositFF, c.modelDeposit(depositFF, n, avgBlock, blocks)
	if cost := c.modelDeposit(depositStaged, n, avgBlock, blocks); cost < bestCost {
		best, bestCost = depositStaged, cost
	}
	if cost := c.modelDeposit(depositSG, n, avgBlock, blocks); cost < bestCost {
		best = depositSG
	}
	return best
}
