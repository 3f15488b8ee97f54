package bench

import (
	"math"
	"testing"

	"scimpich/internal/memmodel"
	"scimpich/internal/mpi"
	"scimpich/internal/ring"
)

// These tests pin the reproduced experiments to the paper's published
// observations (shape and, where the paper gives them, values).

func TestRawFigure1Shape(t *testing.T) {
	results := RunRaw([]int64{8, 64, 1024, 64 << 10, 512 << 10})
	small := results[0]
	if us := small.PIOWriteLatency.Seconds() * 1e6; us < 1 || us > 6 {
		t.Errorf("8B PIO write latency = %.2fµs, want a few µs", us)
	}
	if small.PIOReadLatency <= small.PIOWriteLatency {
		t.Errorf("remote read latency (%v) should exceed write latency (%v)",
			small.PIOReadLatency, small.PIOWriteLatency)
	}
	mid := results[3] // 64 kiB
	if mid.PIOWriteBW < 180 || mid.PIOWriteBW > 230 {
		t.Errorf("64kiB PIO write bw = %.1f MiB/s, want near the 225 peak", mid.PIOWriteBW)
	}
	if mid.PIOReadBW > mid.PIOWriteBW/5 {
		t.Errorf("PIO read bw %.1f should be a small fraction of write %.1f", mid.PIOReadBW, mid.PIOWriteBW)
	}
	if mid.DMABW > 85 {
		t.Errorf("DMA bw = %.1f MiB/s, want <= 85", mid.DMABW)
	}
	big := results[4] // 512 kiB: beyond the caches, the paper's PIO dip
	if big.PIOWriteBW >= mid.PIOWriteBW {
		t.Errorf("PIO write bw should dip beyond 128kiB: %.1f (512k) vs %.1f (64k)",
			big.PIOWriteBW, mid.PIOWriteBW)
	}
}

func TestNoncontigFigure7Claims(t *testing.T) {
	results := RunNoncontig([]int64{8, 16, 128, 4096})
	byBS := map[int64]NoncontigResult{}
	for _, r := range results {
		byBS[r.BlockSize] = r
	}

	// "already reaches 90% of [contiguous] for blocksizes of 128 byte"
	r128 := byBS[128]
	if ratio := r128.InterFF / r128.InterContig; ratio < 0.85 {
		t.Errorf("SCI ff/contig at 128B = %.2f, want >= ~0.9", ratio)
	}
	// "delivers already twice the bandwidth of the generic algorithm for a
	// blocksize of 16 bytes and above" (the factor narrows as the generic
	// engine's per-block overhead amortizes at large blocks).
	if r := byBS[16]; r.InterFF < 1.8*r.InterGeneric {
		t.Errorf("SCI ff at 16B = %.1f, want >= ~2x generic %.1f", r.InterFF, r.InterGeneric)
	}
	if r := byBS[128]; r.InterFF < 1.4*r.InterGeneric {
		t.Errorf("SCI ff at 128B = %.1f, want well above generic %.1f", r.InterFF, r.InterGeneric)
	}
	if r := byBS[4096]; r.InterFF < 1.1*r.InterGeneric {
		t.Errorf("SCI ff at 4kiB = %.1f, want above generic %.1f", r.InterFF, r.InterGeneric)
	}
	// "Only for the case of 8 byte-blocksizes, the generic technique proves
	// to be faster for inter-node communication"
	r8 := byBS[8]
	if r8.InterFF >= r8.InterGeneric {
		t.Errorf("SCI at 8B: ff %.1f should lose to generic %.1f", r8.InterFF, r8.InterGeneric)
	}
	// Intra-node: ff also beats generic.
	if r128.IntraFF <= r128.IntraGeneric {
		t.Errorf("shm at 128B: ff %.1f not above generic %.1f", r128.IntraFF, r128.IntraGeneric)
	}
}

func TestNoncontigShmFFCanBeatContiguous(t *testing.T) {
	// "the performance of the non-contiguous transfer with direct_pack_ff
	// via shared memory can surpass the bandwidth of the equivalent
	// transfer of contiguous data" for certain block sizes.
	results := RunNoncontig([]int64{256, 512, 1024, 4096})
	beat := false
	for _, r := range results {
		if r.IntraFF > r.IntraContig {
			beat = true
		}
	}
	if !beat {
		t.Error("shm ff never surpassed the contiguous transfer (cache-utilization quirk missing)")
	}
}

func TestNoncontig2DDoubleStrided(t *testing.T) {
	// The figure 2 double-strided case: direct_pack_ff must beat the
	// generic pipeline there just as for the single-strided vector.
	results := RunNoncontig2D([]int64{64, 1024})
	for _, r := range results {
		if r.InterFF <= r.InterGeneric {
			t.Errorf("double-strided %dB blocks: ff %.1f not above generic %.1f",
				r.BlockSize, r.InterFF, r.InterGeneric)
		}
	}
}

func TestSparseFigure9Shape(t *testing.T) {
	results := RunSparse([]int64{8, 64, 1024, 32 << 10})
	small := results[0]
	// Private access pays signalling + message exchange.
	if small.PutPrivateLat < 3*small.PutSharedLat {
		t.Errorf("8B put latency: private %.1fµs should dwarf shared %.1fµs",
			small.PutPrivateLat, small.PutSharedLat)
	}
	if small.GetPrivateLat < small.GetSharedLat {
		t.Errorf("8B get latency: private %.1fµs below shared %.1fµs",
			small.GetPrivateLat, small.GetSharedLat)
	}
	// Big gets: shared and private converge (both via message exchange).
	big := results[3]
	ratio := big.GetSharedBW / big.GetPrivateBW
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("32kiB get bandwidths should converge: shared %.1f vs private %.1f",
			big.GetSharedBW, big.GetPrivateBW)
	}
	// Shared put beats everything for small accesses.
	if small.PutSharedBW <= small.GetSharedBW {
		t.Errorf("8B: put-shared bw %.2f should beat get-shared %.2f",
			small.PutSharedBW, small.GetSharedBW)
	}
	// Latency grows with access size for direct gets (strided read stalls).
	if results[2].GetSharedLat <= results[0].GetSharedLat {
		t.Errorf("get-shared latency should rise rapidly: %.1fµs (1kiB) vs %.1fµs (8B)",
			results[2].GetSharedLat, results[0].GetSharedLat)
	}
}

func TestStridedSection43Numbers(t *testing.T) {
	results := RunStrided([]int64{8, 256})
	ext := Extremes(results)
	if len(ext) != 2 {
		t.Fatalf("extremes for %d access sizes, want 2", len(ext))
	}
	e8, e256 := ext[0], ext[1]
	// "varying between 5 and 28 MiB/s for 8 byte access size"
	if math.Abs(e8.MinBW-5) > 2 || math.Abs(e8.MaxBW-28) > 4 {
		t.Errorf("8B strided extremes = %.1f..%.1f MiB/s, want ~5..28", e8.MinBW, e8.MaxBW)
	}
	// "or 7 and 162 MiB/s for 256 byte access size"
	if math.Abs(e256.MinBW-7) > 3 || math.Abs(e256.MaxBW-162) > 12 {
		t.Errorf("256B strided extremes = %.1f..%.1f MiB/s, want ~7..162", e256.MinBW, e256.MaxBW)
	}
	// "values for strides which deliver maximum performance are multiples
	// of 32"
	if e256.BestStride%32 != 0 {
		t.Errorf("best 256B stride = %d, want a multiple of 32", e256.BestStride)
	}
	// Write-combining off: no stride sensitivity, ~50% lower overall.
	var wcOffMin, wcOffMax float64
	for _, r := range results {
		if r.AccessSize != 256 {
			continue
		}
		if wcOffMin == 0 || r.BWNoWC < wcOffMin {
			wcOffMin = r.BWNoWC
		}
		if r.BWNoWC > wcOffMax {
			wcOffMax = r.BWNoWC
		}
	}
	if (wcOffMax-wcOffMin)/wcOffMax > 0.05 {
		t.Errorf("WC-off bandwidth varies %.1f..%.1f, want flat", wcOffMin, wcOffMax)
	}
	if wcOffMax > 0.65*e256.MaxBW {
		t.Errorf("WC-off bw %.1f, want roughly half of the WC-on best %.1f", wcOffMax, e256.MaxBW)
	}
}

func TestTable2Reproduction(t *testing.T) {
	rows := RunTable2(ring.DefaultLinkMHz)
	want := []struct {
		nodes    int
		perNode1 float64
		perNode8 float64
		eff      float64
	}{
		{4, 122.94, 120.70, 0},
		{5, 120.69, 115.80, 0.915},
		{6, 120.88, 97.75, 0.927},
		{7, 120.66, 79.30, 0.877},
		{8, 120.83, 62.78, 0.793},
	}
	for i, w := range want {
		r := rows[i]
		if r.ActiveNodes != w.nodes {
			t.Fatalf("row %d: nodes %d, want %d", i, r.ActiveNodes, w.nodes)
		}
		if rel(r.PerNode1, w.perNode1) > 0.05 {
			t.Errorf("%d nodes: per-node (1/segment) = %.2f, paper %.2f", w.nodes, r.PerNode1, w.perNode1)
		}
		if rel(r.PerNode8, w.perNode8) > 0.07 {
			t.Errorf("%d nodes: per-node (8/segment) = %.2f, paper %.2f", w.nodes, r.PerNode8, w.perNode8)
		}
		if w.eff > 0 && rel(r.Eff, w.eff) > 0.08 {
			t.Errorf("%d nodes: efficiency = %.3f, paper %.3f", w.nodes, r.Eff, w.eff)
		}
	}
}

func TestTable2LinkFrequencyRerun(t *testing.T) {
	// "The measured bandwidth for the worst case scenario ... increased
	// linearly with the ring bandwidth" at 200 MHz.
	r166 := RunTable2(166)[4] // 8 nodes
	r200 := RunTable2(200)[4]
	gotRatio := r200.PerNode8 / r166.PerNode8
	linear := ring.BandwidthForMHz(200) / ring.BandwidthForMHz(166)
	// Our congestion model additionally relaxes at the lower relative load,
	// so the speedup may slightly exceed linear; it must be at least linear
	// and bounded.
	if gotRatio < linear*0.97 || gotRatio > linear*1.18 {
		t.Errorf("200MHz speedup = %.3f, want >= linear %.3f (and bounded)", gotRatio, linear)
	}
}

func TestScalingFigure12Shape(t *testing.T) {
	series := RunScaling(64 << 10)
	byID := map[string]ScalingSeries{}
	for _, s := range series {
		byID[s.ID] = s
	}
	sci := byID["M-S"].Points
	// "constant peak bandwidth of 120 MiB/s for up to 5 nodes"
	for _, pt := range sci {
		if pt.Procs <= 5 && (pt.BW < 108 || pt.BW > 130) {
			t.Errorf("SCI per-node bw at %d nodes = %.1f, want ~120", pt.Procs, pt.BW)
		}
		// "declines accordingly down to 71.8 MiB/s for 8 nodes"
		if pt.Procs == 8 && rel(pt.BW, 71.8) > 0.10 {
			t.Errorf("SCI per-node bw at 8 nodes = %.1f, paper 71.8", pt.BW)
		}
	}
	// T3E constant.
	t3e := byID["C"].Points
	if len(t3e) < 2 || rel(t3e[0].BW, t3e[len(t3e)-1].BW) > 0.05 {
		t.Errorf("T3E scaling not constant: %+v", t3e)
	}
	// Xeon below SCI for coarse accesses at full SMP width.
	xeon := byID["X-s"].Points
	last := xeon[len(xeon)-1]
	if last.BW >= 108 {
		t.Errorf("Xeon coarse-grained per-proc bw at %d procs = %.1f, want below the SCI system", last.Procs, last.BW)
	}
	// Sun Fire declines beyond 6 procs.
	sun := byID["F-s"].Points
	var at4, at16 float64
	for _, pt := range sun {
		if pt.Procs == 4 {
			at4 = pt.BW
		}
		if pt.Procs == 16 {
			at16 = pt.BW
		}
	}
	if at16 >= at4*0.8 {
		t.Errorf("Sun Fire bw at 16 procs (%.1f) should decline notably from 4 procs (%.1f)", at16, at4)
	}
}

func TestPlatformFiguresProduceRows(t *testing.T) {
	bs := []int64{64, 16 << 10}
	nc := RunPlatformNoncontig(bs)
	if len(nc) != 9 { // 7 comparators (VIA excluded) + M-S + M-s
		t.Fatalf("figure 10 has %d rows, want 9", len(nc))
	}
	for _, r := range nc {
		if len(r.NC) != len(bs) || len(r.C) != len(bs) {
			t.Errorf("%s: incomplete curves", r.ID)
		}
	}
	sp := RunPlatformSparse([]int64{64})
	ids := map[string]bool{}
	for _, r := range sp {
		ids[r.ID] = true
	}
	for _, want := range []string{"C", "F-s", "X-f", "X-s", "VIA", "M-S", "M-s"} {
		if !ids[want] {
			t.Errorf("figure 11 missing platform %s", want)
		}
	}
	if ids["S-M"] || ids["F-G"] {
		t.Error("figure 11 must exclude platforms without one-sided support")
	}
}

func rel(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestUltraSparcReproducesShmQuirkAtDifferentBlockSizes(t *testing.T) {
	// Paper §3.4: the ff-beats-contiguous effect reproduces on the
	// UltraSparc II, with different block sizes than on the Pentium-III.
	cfg := mpi.DefaultConfig(1, 2)
	cfg.Shm.Mem = memmodel.UltraSparcII()
	cfg.SCI.Mem = memmodel.UltraSparcII()
	cfg.Shm.BusBW = 500e6
	contig := contigBWOn(cfg)
	beat := false
	for _, bs := range []int64{512, 4096, 16 << 10} {
		if vectorBW(staticPath(cfg, true), bs) > contig {
			beat = true
		}
	}
	if !beat {
		t.Error("UltraSparc II model never shows the ff-over-contiguous quirk")
	}
}

// must fails the calling rank on a fault the test does not expect.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// must1 is must for a call that also returns a value.
func must1[T any](v T, err error) T {
	must(err)
	return v
}
