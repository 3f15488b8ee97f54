package flow

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"scimpich/internal/sim"
)

// TestIncrementalMatchesFullSolve drives a randomized schedule of transfers
// over a shared link set and, at every checkpoint, compares the incremental
// solver's rates against a from-scratch re-solve of the whole network. The
// solver works component-by-component in admission order in both cases, so
// the comparison is exact float equality: any missed dirty mark or stale
// component shows up as a mismatch.
func TestIncrementalMatchesFullSolve(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := NewNetwork(e)
		links := make([]*Link, 8)
		for i := range links {
			links[i] = NewLink("l", float64(rng.Intn(400)+50)*mib, nil)
		}
		// A couple of congested links exercise effectiveCapacity ordering.
		links[0] = NewLink("c0", 200*mib, BusCongestion{PerFlowPenalty: 0.05, Floor: 0.4})
		check := func() {
			want := make(map[*Flow]float64, len(n.flows))
			for _, f := range n.flows {
				want[f] = f.rate
			}
			n.solveAll()
			for f, r := range want {
				if f.rate != r {
					t.Fatalf("seed %d at %v: incremental rate %g != full solve %g",
						seed, e.Now(), r, f.rate)
				}
			}
		}
		for i := 0; i < 60; i++ {
			at := time.Duration(rng.Intn(3000)) * time.Millisecond
			e.At(at, func() {
				nh := rng.Intn(3) // 0 hops = source-capped only
				hops := make([]Hop, 0, nh)
				for j := 0; j < nh; j++ {
					w := 1.0
					if rng.Intn(4) == 0 {
						w = 0.25
					}
					hops = append(hops, Hop{Link: links[rng.Intn(len(links))], Weight: w})
				}
				n.Start(hops, int64(rng.Intn(64)+1)*mib, float64(rng.Intn(200)+10)*mib)
				check()
			})
		}
		for i := 0; i < 40; i++ {
			e.At(time.Duration(rng.Intn(4000))*time.Millisecond, func() { check() })
		}
		e.Run()
		if n.ActiveFlows() != 0 {
			t.Fatalf("seed %d: %d flows never finished", seed, n.ActiveFlows())
		}
	}
}

// TestSolveAllDoesNotPerturbProgress pins the oracle as an observer: a
// from-scratch solve in the middle of a transfer re-anchors progress from the
// bytes actually left at that instant, so the schedule completes exactly when
// it would have without the solve.
func TestSolveAllDoesNotPerturbProgress(t *testing.T) {
	run := func(solveMidFlight bool) time.Duration {
		e := sim.NewEngine()
		n := NewNetwork(e)
		l := NewLink("l", 100*mib, nil)
		var done time.Duration
		n.Start(Path(l), 50*mib, 1000*mib).Done().OnComplete(func(any) { done = e.Now() })
		if solveMidFlight {
			e.At(200*time.Millisecond, n.solveAll)
		}
		e.Run()
		return done
	}
	plain, solved := run(false), run(true)
	if plain != 500*time.Millisecond || solved != plain {
		t.Fatalf("50 MiB at 100 MiB/s finished at %v, with a solveAll at 200ms at %v; want 500ms both",
			plain, solved)
	}
}

// TestRemainingAtRoundsItsProduct recomputes TestSolveAllDoesNotPerturbProgress
// with remainingAt's product fused into a multiply-add (math.FMA: one
// rounding), as arm64, ppc64le, s390x and riscv64 compile a - r*dt unless the
// product is converted explicitly. After the re-anchor at 200 ms the rounded
// product leaves nothing at 500 ms; the fused one leaves a residue above
// finishedBelow, so the flow would finish after 500 ms and the observer solve
// would perturb progress after all. make no-fma keeps the fusion out.
func TestRemainingAtRoundsItsProduct(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	f := n.Start(Path(NewLink("l", 100*mib, nil)), 50*mib, 1000*mib)
	end := 500 * time.Millisecond
	var rounded, fused float64
	e.At(200*time.Millisecond, func() {
		n.solveAll()
		if f.anchorAt != 200*time.Millisecond {
			t.Fatalf("solveAll at 200ms anchored the flow at %v", f.anchorAt)
		}
		rounded = f.remainingAt(end)
		fused = max(0, math.FMA(-f.rate, (end-f.anchorAt).Seconds(), f.anchorRemaining))
	})
	e.Run()
	if rounded != 0 {
		t.Errorf("remainingAt(500ms) = %g bytes, want 0", rounded)
	}
	if fused <= finishedBelow {
		t.Errorf("fused remainingAt(500ms) = %g bytes, within finishedBelow: the scenario no longer shows the hazard", fused)
	}
}

// TestSolveAllocFree pins the solver's steady state: with the scratch slices
// warm, re-solving a 64-flow network of 8 components — discovery, admission
// ordering, re-anchoring and progressive filling — allocates nothing.
func TestSolveAllocFree(t *testing.T) {
	n := NewNetwork(sim.NewEngine())
	var links [16]*Link
	for i := range links {
		links[i] = NewLink("l", 100*mib, SCIRingCongestion{})
	}
	for i := 0; i < 64; i++ {
		g := i % 8 // component g owns links 2g and 2g+1
		path := Path(links[2*g+i/8%2], links[2*g+1])
		n.Start(path, 64*mib, float64(10+i)*mib)
	}
	n.solveAll() // warm the dirty list and the component scratch
	if a := testing.AllocsPerRun(100, n.solveAll); a != 0 {
		t.Errorf("solveAll on a warm 64-flow network: %v allocs/op, want 0", a)
	}
}

// TestLinkLatencyHelpers covers the lookahead-extraction API.
func TestLinkLatencyHelpers(t *testing.T) {
	a := NewLink("a", mib, nil).SetLatency(70 * time.Nanosecond)
	b := NewLink("b", mib, nil).SetLatency(130 * time.Nanosecond)
	c := NewLink("c", mib, nil) // latency never set
	if got := PathLatency(Path(a, b, a)); got != 270*time.Nanosecond {
		t.Errorf("PathLatency = %v, want 270ns", got)
	}
	if got := MinLatency([]*Link{a, b}); got != 70*time.Nanosecond {
		t.Errorf("MinLatency = %v, want 70ns", got)
	}
	if got := MinLatency([]*Link{a, c}); got != 0 {
		t.Errorf("MinLatency with unset link = %v, want 0", got)
	}
	if got := MinLatency(nil); got != 0 {
		t.Errorf("MinLatency(nil) = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative latency did not panic")
		}
	}()
	a.SetLatency(-time.Nanosecond)
}
