package bench

import (
	"testing"

	"scimpich/internal/mpi"
)

func TestOneVsTwoSidedConclusion(t *testing.T) {
	r := RunOneVsTwoSided()
	// Paper §6: "if synchronization is considered, one-sided communication
	// does usually not provide lower latencies if compared directly with
	// two-sided communication using micro-benchmarks."
	if r.OneSidedPingPong < r.TwoSidedPingPong {
		t.Errorf("synchronized one-sided ping-pong (%v) should not beat two-sided (%v)",
			r.OneSidedPingPong, r.TwoSidedPingPong)
	}
	// But a busy, non-participating target changes the picture entirely:
	// direct remote access does not wait for the target's polls.
	if r.OneSidedBusy >= r.TwoSidedBusy/3 {
		t.Errorf("one-sided access to a busy target (%v) should be far faster than request-reply (%v)",
			r.OneSidedBusy, r.TwoSidedBusy)
	}
}

func TestDTBenchSuiteInvariants(t *testing.T) {
	results := RunDTBench()
	if len(results) != len(DTPatterns()) {
		t.Fatalf("suite returned %d rows, want %d", len(results), len(DTPatterns()))
	}
	for _, r := range results {
		if r.Name == "contiguous" {
			if r.FFEff < 0.99 || r.GenericEff < 0.99 {
				t.Errorf("contiguous pattern efficiency %f/%f, want 1", r.GenericEff, r.FFEff)
			}
			continue
		}
		// direct_pack_ff must never lose to the generic engine on these
		// patterns (all blocks >= 7 bytes; the 8-byte crossover applies to
		// strictly tiny blocks only).
		if r.FFBW < r.GenericBW {
			t.Errorf("%s: ff %.1f below generic %.1f", r.Name, r.FFBW, r.GenericBW)
		}
		// And the data sizes must be near the nominal payload.
		if r.Bytes < NoncontigTotal*9/10 || r.Bytes > NoncontigTotal*11/10 {
			t.Errorf("%s: payload %d bytes, want ~%d", r.Name, r.Bytes, NoncontigTotal)
		}
	}
	// The [24] finding: the generic engine is "significantly reduced"
	// versus contiguous for fine-grained patterns.
	for _, r := range results {
		if r.Name == "vector-small-blocks" && r.GenericEff > 0.6 {
			t.Errorf("small-block generic efficiency %.2f, want significantly reduced", r.GenericEff)
		}
	}
}

func TestDMARendezvousOption(t *testing.T) {
	// The §6 outlook: large contiguous chunks over the DMA engine. The CPU
	// is freed (not modeled as time here), at the price of bandwidth.
	contigBWOnPath := func(path mpi.PathPolicy) float64 {
		cfg := mpi.DefaultConfig(2, 1)
		cfg.Protocol.Path = path
		return contigBWOn(cfg)
	}
	bwPIO := contigBWOnPath(mpi.PathAdaptive)
	bwDMA := contigBWOnPath(mpi.PathDMA)
	if bwDMA >= bwPIO {
		t.Errorf("DMA transfer (%.1f MiB/s) should trade bandwidth vs PIO (%.1f MiB/s) on this platform",
			bwDMA, bwPIO)
	}
	if bwDMA < 50 || bwDMA > 85 {
		t.Errorf("DMA-path bandwidth = %.1f MiB/s, want near the 85 MiB/s engine peak", bwDMA)
	}
}

func TestTorusProjection(t *testing.T) {
	// §6: "a limit of 8 nodes per ringlet ... gives a 512 nodes system
	// when using 3D-torus topology". Per-node bandwidth on the torus must
	// match the single ringlet; a flat 512-ring must collapse.
	rows := RunTorusProjection(200)
	ringlet, torus512, giant := rows[0], rows[1], rows[2]
	if torus512.Nodes != 512 || ringlet.Nodes != 8 {
		t.Fatalf("unexpected scenario shapes: %+v", rows)
	}
	if torus512.PerNode < ringlet.PerNode*0.95 {
		t.Errorf("torus per-node bw %.1f falls below the ringlet's %.1f",
			torus512.PerNode, ringlet.PerNode)
	}
	if giant.PerNode > torus512.PerNode/10 {
		t.Errorf("flat 512-ring per-node bw %.1f did not collapse (torus %.1f)",
			giant.PerNode, torus512.PerNode)
	}
}
