package bench

import (
	"strings"
	"sync"
	"testing"
)

// The claims BENCH_coll.json gates. The sweep is deterministic (virtual
// time), so these are exact regression gates, not flaky thresholds.

var collOnce = struct {
	sync.Once
	rows []CollResult
}{}

func collRows() []CollResult {
	collOnce.Do(func() { collOnce.rows = RunCollBench(CollNodeCounts()) })
	return collOnce.rows
}

// forcedColumns returns the forced-algorithm measurements of a row keyed
// by algorithm name.
func forcedColumns(r CollResult) map[string]float64 {
	m := map[string]float64{}
	for k, v := range map[string]float64{
		"p2p": r.P2P, "recdbl": r.RecDbl, "ring": r.Ring, "onesided": r.OneSided,
	} {
		if v > 0 {
			m[k] = v
		}
	}
	return m
}

// TestCollAdaptiveTracksBest: the chooser's achieved bandwidth stays
// within 15% of the measured-best forced algorithm on every row. The
// chooser is the argmin of the cost-model priors, with nothing learned,
// so where two families come within the priors' error (a near tie) it may
// pick the slower one; this gate bounds what that costs.
func TestCollAdaptiveTracksBest(t *testing.T) {
	for _, r := range collRows() {
		if r.Best <= 0 {
			t.Fatalf("%s n=%d bytes=%d: no forced measurement", r.Coll, r.Nodes, r.Bytes)
		}
		if r.Adaptive < 0.85*r.Best {
			t.Errorf("%s n=%d bytes=%d: adaptive %.1f MiB/s below 85%% of best %.1f (%s)",
				r.Coll, r.Nodes, r.Bytes, r.Adaptive, r.Best, r.BestAlg)
		}
	}
}

// TestCollChooserMatchesClearWinners: whenever the measured-best forced
// algorithm beats the runner-up by more than 20%, the chooser must have
// picked it. (Closer calls are left to the priors: a sub-20%% miss costs
// less than the margin the adaptive gate above already bounds.)
func TestCollChooserMatchesClearWinners(t *testing.T) {
	gated := 0
	for _, r := range collRows() {
		cols := forcedColumns(r)
		second := 0.0
		for alg, bw := range cols {
			if alg != r.BestAlg && bw > second {
				second = bw
			}
		}
		if second == 0 || r.Best <= 1.2*second {
			continue // no clear winner; either pick is defensible
		}
		gated++
		if r.Chosen != r.BestAlg {
			t.Errorf("%s n=%d bytes=%d: chooser picked %s, but %s is best by >20%% (%.1f vs %.1f)",
				r.Coll, r.Nodes, r.Bytes, r.Chosen, r.BestAlg, r.Best, second)
		}
	}
	if gated == 0 {
		t.Fatal("no row has a clear winner; the gate is vacuous")
	}
}

// TestCollOneSidedBcastWinsLarge: the chunk-pipelined one-sided tree beats
// the store-and-forward P2P binomial tree by >10% for large contiguous
// broadcasts, at every cluster size.
func TestCollOneSidedBcastWinsLarge(t *testing.T) {
	hit := 0
	for _, r := range collRows() {
		if r.Coll != "bcast" || r.Bytes < 2<<20 {
			continue
		}
		hit++
		if r.OneSided <= 1.1*r.P2P {
			t.Errorf("bcast n=%d bytes=%d: one-sided %.1f MiB/s does not beat p2p %.1f by >10%%",
				r.Nodes, r.Bytes, r.OneSided, r.P2P)
		}
	}
	if hit == 0 {
		t.Fatal("sweep has no large bcast rows")
	}
}

// TestCollOneSidedExchangeWinsSmallBlocks: for latency-bound small
// per-peer blocks, the one-sided window exchange (one deposit and two
// control packets per block) beats the P2P ring/pairwise algorithms in
// allgather and alltoall, once a member has more than one peer: its
// notifies and acks then travel behind its next deposits. With one peer
// (2 nodes) nothing hides them, and the pairwise message is faster.
func TestCollOneSidedExchangeWinsSmallBlocks(t *testing.T) {
	hit := 0
	for _, r := range collRows() {
		if (r.Coll != "allgather" && r.Coll != "alltoall") || r.Bytes > 4<<10 || r.Nodes < 3 {
			continue
		}
		hit++
		if r.OneSided <= r.P2P {
			t.Errorf("%s n=%d bytes=%d: one-sided %.1f MiB/s does not beat p2p %.1f",
				r.Coll, r.Nodes, r.Bytes, r.OneSided, r.P2P)
		}
	}
	if hit == 0 {
		t.Fatal("sweep has no small allgather/alltoall rows")
	}
}

// TestCollRingAllreduceWinsLarge: the bandwidth-optimal ring beats the
// naive reduce+bcast composition for large vectors (the reason the engine
// exists), and recursive doubling on 3 or more nodes. On 2 nodes both
// families move the vector once per rank, and recursive doubling does it in
// one step where the ring needs two, so there only the chooser's pick is
// held: it takes the better family.
func TestCollRingAllreduceWinsLarge(t *testing.T) {
	hit := 0
	for _, r := range collRows() {
		if r.Coll != "allreduce" || r.Bytes < 256<<10 {
			continue
		}
		hit++
		if r.Ring <= r.P2P || (r.Nodes >= 3 && r.Ring <= r.RecDbl) {
			t.Errorf("allreduce n=%d bytes=%d: ring %.1f MiB/s not above p2p %.1f and recdbl %.1f",
				r.Nodes, r.Bytes, r.Ring, r.P2P, r.RecDbl)
		}
		if r.Nodes == 2 && r.Adaptive != r.Best {
			t.Errorf("allreduce n=2 bytes=%d: the chooser's %s at %.1f MiB/s is not the best family's %s at %.1f",
				r.Bytes, r.Chosen, r.Adaptive, r.BestAlg, r.Best)
		}
	}
	if hit == 0 {
		t.Fatal("sweep has no large allreduce rows")
	}
}

// A family that does not implement a collective is 0 in the result and
// omitted from the JSON; the text table must not print it as a measured 0.0.
func TestFormatCollMarksUnimplementedFamilies(t *testing.T) {
	out := FormatColl([]CollResult{{
		Coll: "bcast", Nodes: 8, Bytes: 4096,
		P2P: 12.5, OneSided: 20, Adaptive: 20, Chosen: "onesided", Best: 20, BestAlg: "onesided",
	}})
	row := strings.Fields(strings.Split(out, "\n")[2])
	want := []string{"bcast", "8", "4096", "12.5", "-", "-", "20.0", "20.0", "onesided", "onesided"}
	if strings.Join(row, " ") != strings.Join(want, " ") {
		t.Errorf("row = %v, want %v", row, want)
	}
}
