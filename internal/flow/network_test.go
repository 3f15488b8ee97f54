package flow

import (
	"math"
	"testing"
	"time"

	"scimpich/internal/obs"
	"scimpich/internal/sim"
)

const mib = 1 << 20

// start admits one flow for the caller to keep, as StartBatch admits many.
func start(n *Network, path []Hop, bytes int64, srcCap float64) *Flow {
	return n.StartBatch([][]Hop{path}, bytes, srcCap)[0]
}

// finishAt records in at the instant f completes, as a process awaiting it
// sees it.
func finishAt(e *sim.Engine, f *Flow, at *time.Duration) {
	e.Go("observer", func(p *sim.Proc) { p.Await(f.Done()); *at = p.Now() })
}

func TestSingleFlowSourceLimited(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l := NewLink("l", 1000*mib, nil)
	var done time.Duration
	e.Go("p", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 100*mib, 100*mib)
		done = p.Now()
	})
	e.Run()
	want := time.Second
	if diff := done - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("100MiB at 100MiB/s took %v, want ~1s", done)
	}
}

func TestSingleFlowLinkLimited(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l := NewLink("l", 50*mib, nil)
	var done time.Duration
	e.Go("p", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 100*mib, 200*mib)
		done = p.Now()
	})
	e.Run()
	want := 2 * time.Second
	if diff := done - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("100MiB over 50MiB/s link took %v, want ~2s", done)
	}
}

func TestTwoFlowsShareLinkFairly(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l := NewLink("l", 100*mib, nil)
	var d1, d2 time.Duration
	e.Go("a", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 100*mib, 1000*mib)
		d1 = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 100*mib, 1000*mib)
		d2 = p.Now()
	})
	e.Run()
	// Both share 100 MiB/s, so each gets 50: done in ~2s.
	for _, d := range []time.Duration{d1, d2} {
		if diff := d - 2*time.Second; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
			t.Fatalf("shared flows finished at %v, %v; want ~2s each", d1, d2)
		}
	}
}

func TestFlowDepartureSpeedsUpRemainder(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l := NewLink("l", 100*mib, nil)
	var dShort, dLong time.Duration
	e.Go("short", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 50*mib, 1000*mib)
		dShort = p.Now()
	})
	e.Go("long", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 150*mib, 1000*mib)
		dLong = p.Now()
	})
	e.Run()
	// Phase 1: both at 50 MiB/s. Short (50 MiB) done at t=1s.
	// Phase 2: long has 100 MiB left, now alone at 100 MiB/s: +1s => t=2s.
	if diff := dShort - time.Second; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
		t.Errorf("short flow finished at %v, want ~1s", dShort)
	}
	if diff := dLong - 2*time.Second; diff < -20*time.Millisecond || diff > 20*time.Millisecond {
		t.Errorf("long flow finished at %v, want ~2s", dLong)
	}
}

func TestMaxMinWithHeterogeneousCaps(t *testing.T) {
	// Flow A capped at 20; flows B and C uncapped on a 100 link.
	// Max-min: A=20, B=C=40.
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l := NewLink("l", 100*mib, nil)
	var rates []float64
	e.Go("driver", func(p *sim.Proc) {
		fa := start(n, Path(l), 1000*mib, 20*mib)
		fb := start(n, Path(l), 1000*mib, 1000*mib)
		fc := start(n, Path(l), 1000*mib, 1000*mib)
		rates = []float64{fa.rate, fb.rate, fc.rate}
		p.Await(fa.Done())
		e.Stop()
	})
	e.Run()
	want := []float64{20 * mib, 40 * mib, 40 * mib}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMultiLinkPathBottleneck(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l1 := NewLink("l1", 100*mib, nil)
	l2 := NewLink("l2", 30*mib, nil)
	var done time.Duration
	e.Go("p", func(p *sim.Proc) {
		n.Transfer(p, Path(l1, l2), 30*mib, 1000*mib)
		done = p.Now()
	})
	e.Run()
	if diff := done - time.Second; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
		t.Fatalf("path transfer took %v, want ~1s (30 MiB bottleneck)", done)
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	f := start(n, nil, 0, 1)
	if !f.Done().Done() {
		t.Fatal("zero-byte flow not immediately done")
	}
	e.Run()
}

func TestRateConservationProperty(t *testing.T) {
	// For several random-ish configurations, verify the max-min invariants:
	// (1) no link is oversubscribed, (2) every flow is bound by either its
	// source cap or a saturated link (Pareto optimality of max-min).
	configs := []struct {
		capLink float64
		caps    []float64
	}{
		{100, []float64{10, 20, 200}},
		{100, []float64{200, 200, 200, 200}},
		{50, []float64{60}},
		{300, []float64{10, 10, 10}},
		{100, []float64{33, 33, 35, 200, 7}},
	}
	for ci, cfg := range configs {
		e := sim.NewEngine()
		n := NewNetworkOn(e)
		l := NewLink("l", cfg.capLink*mib, nil)
		var flows []*Flow
		e.Go("driver", func(p *sim.Proc) {
			for _, c := range cfg.caps {
				flows = append(flows, start(n, Path(l), 1<<40, c*mib))
			}
			total := 0.0
			for _, f := range flows {
				total += f.rate
			}
			if total > cfg.capLink*mib*1.0001 {
				t.Errorf("config %d: total rate %g exceeds link capacity %g", ci, total/mib, cfg.capLink)
			}
			saturated := total >= cfg.capLink*mib*0.9999
			for fi, f := range flows {
				atCap := math.Abs(f.rate-cfg.caps[fi]*mib) < 1
				if !atCap && !saturated {
					t.Errorf("config %d flow %d: rate %g below cap %g on unsaturated link", ci, fi, f.rate/mib, cfg.caps[fi])
				}
			}
			e.Stop()
		})
		e.Run()
	}
}

func TestSCIRingCongestionCalibration(t *testing.T) {
	m := SCIRingCongestion{}
	// Exact calibration points at utilization 8 (Table 2).
	cases := []struct{ load, want float64 }{
		{0.763, 0.763},
		{0.953, 0.915},
		{1.144, 0.927},
		{1.335, 0.877},
		{1.525, 0.793},
	}
	for _, c := range cases {
		got := m.AchievedFraction(c.load, 8)
		if math.Abs(got-c.want) > 0.002 {
			t.Errorf("AchievedFraction(%g, 8) = %g, want %g", c.load, got, c.want)
		}
	}
	// Utilization 1 is ideal.
	if got := m.AchievedFraction(1.5, 1); got != 1.0 {
		t.Errorf("AchievedFraction(1.5, 1) = %g, want 1.0", got)
	}
	if got := m.AchievedFraction(0.5, 1); got != 0.5 {
		t.Errorf("AchievedFraction(0.5, 1) = %g, want 0.5", got)
	}
	// Utilization 4 sits between ideal and utilization 8 (Figure 12:
	// 71.8 MiB/s per node at 8 nodes => aggregate fraction ~0.907).
	got := m.AchievedFraction(1.525, 4)
	if got <= m.AchievedFraction(1.525, 8) || got >= 1.0 {
		t.Errorf("AchievedFraction(1.525, 4) = %g, want between %g and 1",
			got, m.AchievedFraction(1.525, 8))
	}
	if math.Abs(got-0.907) > 0.03 {
		t.Errorf("AchievedFraction(1.525, 4) = %g, want ~0.907 (Figure 12)", got)
	}
}

func TestBusCongestion(t *testing.T) {
	m := BusCongestion{PerFlowPenalty: 0.1, Floor: 0.3}
	if got := m.AchievedFraction(2.0, 1); got != 1.0 {
		t.Errorf("single flow = %g, want 1.0", got)
	}
	if got := m.AchievedFraction(2.0, 3); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("3 flows = %g, want 0.8", got)
	}
	if got := m.AchievedFraction(2.0, 100); got != 0.3 {
		t.Errorf("floor = %g, want 0.3", got)
	}
}

func TestInterpCurveEdges(t *testing.T) {
	curve := [][2]float64{{0, 0}, {1, 10}, {2, 0}}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {1.5, 5}, {2, 0}, {3, 0},
	}
	for _, c := range cases {
		if got := interpCurve(curve, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("interpCurve(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestStartBatchMatchesIndividualStarts(t *testing.T) {
	run := func(batch bool) time.Duration {
		e := sim.NewEngine()
		n := NewNetworkOn(e)
		l := NewLink("l", 100*mib, nil)
		paths := [][]Hop{Path(l), Path(l), Path(l)}
		var done time.Duration
		e.Go("driver", func(p *sim.Proc) {
			var flows []*Flow
			if batch {
				flows = n.StartBatch(paths, 50*mib, 1000*mib)
			} else {
				for _, path := range paths {
					flows = append(flows, start(n, path, 50*mib, 1000*mib))
				}
			}
			for _, f := range flows {
				p.Await(f.Done())
			}
			done = p.Now()
		})
		e.Run()
		return done
	}
	a, b := run(true), run(false)
	if a != b {
		t.Errorf("batch start (%v) and individual starts (%v) disagree", a, b)
	}
}

func TestStartBatchZeroBytes(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l := NewLink("l", 100*mib, nil)
	flows := n.StartBatch([][]Hop{Path(l), Path(l)}, 0, 1)
	for i, f := range flows {
		if !f.Done().Done() {
			t.Errorf("zero-byte batched flow %d not complete", i)
		}
	}
	e.Run()
}

func TestNetworkMetrics(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	reg := obs.NewRegistry()
	n.SetMetrics(reg)
	l := NewLink("l", 1000*mib, nil)
	e.Go("a", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 100*mib, 100*mib)
	})
	e.Go("b", func(p *sim.Proc) {
		n.Transfer(p, Path(l), 50*mib, 100*mib)
	})
	e.Run()
	if got := n.Stats(); got.Bytes != 150*mib || got.ActiveMax != 2 {
		t.Errorf("Stats() = %+v, want Bytes %d, ActiveMax 2", got, 150*mib)
	}
	n.Publish(reg)
	if got := reg.Counter("flow.bytes").Value(); got != 150*mib {
		t.Errorf("flow.bytes = %d, want %d", got, 150*mib)
	}
	if got := reg.Gauge("flow.active.max").Value(); got != 2 {
		t.Errorf("flow.active.max = %d, want 2", got)
	}
	hs := reg.Histogram("flow.transfer.ns").Snapshot()
	if hs.Count != 2 {
		t.Errorf("flow.transfer.ns count = %d, want 2", hs.Count)
	}
	if hs.Max < int64(499*time.Millisecond) || hs.Max > int64(1100*time.Millisecond) {
		t.Errorf("flow.transfer.ns max = %v, implausible", time.Duration(hs.Max))
	}
}

func TestNetworkMetricsNilRegistry(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	n.SetMetrics(nil) // must stay a no-op
	l := NewLink("l", 1000*mib, nil)
	e.Go("a", func(p *sim.Proc) { n.Transfer(p, Path(l), mib, mib) })
	e.Run()
}
