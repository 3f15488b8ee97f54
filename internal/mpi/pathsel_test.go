package mpi

import (
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// depositBlockSizes are the block sizes of the path-selection matrix
// (bench.DMAPathBlockSizes, which this package cannot import).
var depositBlockSizes = []int64{8, 16, 32, 64, 128, 256, 1024, 8192}

// stridedVector is the Figure 7 datatype: total bytes of bs-byte Float64
// blocks, each followed by a gap of the same size.
func stridedVector(total, bs int64) *datatype.Type {
	elems := int(bs / 8)
	return datatype.Vector(int(total/bs), elems, 2*elems, datatype.Float64).Commit()
}

// TestDepositChoiceIgnoresHistory: the deposit path of a chunk depends on
// its size, average block and block count only. A 16 B-block message takes
// the path it takes in a fresh world even after an 8 B-block message to the
// same peer chose another one.
func TestDepositChoiceIgnoresHistory(t *testing.T) {
	const total = 256 << 10
	b8, b16 := stridedVector(total, 8), stridedVector(total, 16)
	// chosen sends each type in turn from rank 0 to rank 1 of a fresh 2x1
	// world and returns the chunk counts of the last message by path.
	chosen := func(types ...*datatype.Type) (delta [flight.PathDMACont + 1]int64) {
		Run(DefaultConfig(2, 1), func(c *Comm) {
			for i, ty := range types {
				buf := make([]byte, ty.Extent())
				if c.Rank() == 1 {
					must1(c.Recv(buf, 1, ty, 0, 256+i))
					continue
				}
				before := c.World().WorldStats().PathChosen
				must(c.Send(buf, 1, ty, 1, 256+i))
				after := c.World().WorldStats().PathChosen
				for p := range delta {
					delta[p] = after[p] - before[p]
				}
			}
		})
		return delta
	}
	fresh, after8 := chosen(b16), chosen(b8, b16)
	if want := int64(total / (64 << 10)); fresh[depositSG] != want {
		t.Fatalf("a fresh world deposits the 16 B message's chunks as %v, want %d x dma-sg", fresh, want)
	}
	if after8 != fresh {
		t.Errorf("after an 8 B message the 16 B message's chunks go %v, in a fresh world %v", after8, fresh)
	}
}

// TestDepositPriorIsTheBill: modelDeposit prices the first 64 KiB chunk of
// an uncontended 2-node transfer at what the simulator bills for it, up to
// named terms, for each forced path and block size, and the adaptive policy
// deposits by the path whose prior is cheapest. The terms:
//
//   - pio-ff: sci.BlockWriter rounds each block's stream time up to a whole
//     nanosecond, the prior rounds the chunk's once (0.00-0.23 % over);
//   - staged: the node bus floor. chargeBlocks bills the local pack through
//     the memory bus, which moves at most BusBW, while BlockCopyCostFF omits
//     that floor (4-8 % under from 256 B blocks up). The stream itself
//     carries no per-write issue overhead, which the prior bills once;
//   - dma-sg: none.
//
// Beyond the terms only the flow's rounding to whole nanoseconds remains.
func TestDepositPriorIsTheBill(t *testing.T) {
	const slack = 2 * time.Nanosecond
	for _, tc := range []struct {
		policy PathPolicy
		span   string
	}{
		{PathPIO, "direct_pack_ff"},
		{PathStaged, "staged_ff"},
		{PathDMA, "dma_sg"},
		{PathAdaptive, ""},
	} {
		for _, bs := range depositBlockSizes {
			cfg := DefaultConfig(2, 1)
			cfg.Protocol.Path = tc.policy
			tr := obs.NewTrace(0)
			cfg.Tracer = tr
			n := cfg.Protocol.RendezvousChunk
			blocks := n / bs
			ty := stridedVector(n, bs)
			var path depositPath
			var prior, term time.Duration
			Run(cfg, func(c *Comm) {
				buf := make([]byte, ty.Extent())
				if c.Rank() == 1 {
					must1(c.Recv(buf, 1, ty, 0, 256))
					return
				}
				must(c.Send(buf, 1, ty, 1, 256))
				path = c.chooseDeposit(n, bs, blocks)
				prior = c.modelDeposit(path, n, bs, blocks)
				switch bw := cfg.SCI.StreamWriteBW(bs); path {
				case depositFF:
					term = time.Duration(blocks)*sim.RateDuration(bs, bw) - sim.RateDuration(n, bw)
				case depositStaged:
					floor := sim.RateDuration(n, cfg.Shm.BusBW) - c.mem().BlockCopyCostFF(n, bs, 2*n)
					term = max(floor, 0) - sci.WriteIssueOverhead
				}
			})
			if tc.policy == PathAdaptive {
				tc.span = [...]string{depositFF: "direct_pack_ff", depositStaged: "staged_ff", depositSG: "dma_sg"}[path]
			}
			var bill time.Duration
			for _, sp := range tr.Spans() {
				if sp.Category == "pack" && sp.Name == tc.span {
					bill = sp.Duration()
					break
				}
			}
			if bill == 0 {
				t.Fatalf("%v, %d B blocks: no %s deposit was traced", tc.policy, bs, tc.span)
			}
			if d := bill - (prior + term); d < -slack || d > slack {
				t.Errorf("%v, %d B blocks: %v billed %v, prior %v + term %v misses it by %v",
					tc.policy, bs, path, bill, prior, term, d)
			}
		}
	}
}
