package flow

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"scimpich/internal/sim"
)

// Property-based tests of the weighted max-min allocator: for randomly
// generated networks, verify the defining invariants of a max-min fair
// allocation.

type netSpec struct {
	LinkCaps  []uint16 // capacity of each link, in MiB/s units (nonzero)
	FlowPaths [][]bool // flow i crosses link j
	FlowCaps  []uint16 // source cap of each flow
}

// Generate implements quick.Generator.
func (netSpec) Generate(rng *rand.Rand, size int) reflect.Value {
	nl := rng.Intn(4) + 1
	nf := rng.Intn(5) + 1
	s := netSpec{
		LinkCaps:  make([]uint16, nl),
		FlowPaths: make([][]bool, nf),
		FlowCaps:  make([]uint16, nf),
	}
	for i := range s.LinkCaps {
		s.LinkCaps[i] = uint16(rng.Intn(400) + 50)
	}
	for i := range s.FlowPaths {
		s.FlowPaths[i] = make([]bool, nl)
		any := false
		for j := range s.FlowPaths[i] {
			if rng.Intn(2) == 0 {
				s.FlowPaths[i][j] = true
				any = true
			}
		}
		if !any {
			s.FlowPaths[i][rng.Intn(nl)] = true
		}
		s.FlowCaps[i] = uint16(rng.Intn(300) + 10)
	}
	return reflect.ValueOf(s)
}

func TestQuickMaxMinInvariants(t *testing.T) {
	prop := func(s netSpec) bool {
		e := sim.NewEngine()
		n := NewNetworkOn(e)
		links := make([]*Link, len(s.LinkCaps))
		for i, c := range s.LinkCaps {
			links[i] = NewLink("l", float64(c)*mib, nil)
		}
		var flows []*Flow
		ok := true
		e.Go("driver", func(p *sim.Proc) {
			for i, path := range s.FlowPaths {
				var hops []Hop
				for j, used := range path {
					if used {
						hops = append(hops, Hop{Link: links[j], Weight: 1})
					}
				}
				flows = append(flows, start(n, hops, 1<<40, float64(s.FlowCaps[i])*mib))
			}
			// Invariant 1: no link oversubscribed.
			for j := range links {
				var sum float64
				for i, f := range flows {
					if s.FlowPaths[i][j] {
						sum += f.rate
					}
				}
				if sum > float64(s.LinkCaps[j])*mib*1.0001 {
					ok = false
				}
			}
			// Invariant 2: no flow exceeds its source cap.
			for i, f := range flows {
				if f.rate > float64(s.FlowCaps[i])*mib*1.0001 {
					ok = false
				}
				if f.rate <= 0 {
					ok = false
				}
			}
			// Invariant 3 (max-min): every flow is bottlenecked — either at
			// its source cap, or on some saturated link where it has the
			// (weakly) largest rate among the link's flows.
			for i, f := range flows {
				if math.Abs(f.rate-float64(s.FlowCaps[i])*mib) < 1 {
					continue
				}
				bottlenecked := false
				for j := range links {
					if !s.FlowPaths[i][j] {
						continue
					}
					var sum, maxRate float64
					for k, g := range flows {
						if s.FlowPaths[k][j] {
							sum += g.rate
							if g.rate > maxRate {
								maxRate = g.rate
							}
						}
					}
					if sum >= float64(s.LinkCaps[j])*mib*0.9999 && f.rate >= maxRate-1 {
						bottlenecked = true
						break
					}
				}
				if !bottlenecked {
					ok = false
				}
			}
			e.Stop()
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRepeatedLinkIsSummedWeight: a path that names a link in several
// hops (an SCI transfer whose echo packets return over segments its data
// already crossed) is exactly the path that names it once with the weights
// summed — same rates, same completion instants, bit for bit — whether or not
// a congestion model reads the link's demand.
func TestQuickRepeatedLinkIsSummedWeight(t *testing.T) {
	type outcome struct {
		rates []float64
		ends  []time.Duration
	}
	prop := func(capMiB, srcA, srcB, w1, w2 uint8, kib uint16, congested bool) bool {
		wa, wb := float64(w1%8+1)/8, float64(w2%8+1)/8
		run := func(repeat bool) outcome {
			e := sim.NewEngine()
			n := NewNetworkOn(e)
			var model CongestionModel
			if congested {
				model = SCIRingCongestion{}
			}
			l := NewLink("l", float64(capMiB%100+20)*mib, model)
			m := NewLink("m", 60*mib, nil)
			pathA := []Hop{{l, wa + wb}, {m, 1}}
			if repeat {
				pathA = []Hop{{l, wa}, {m, 1}, {l, wb}}
			}
			bytes := int64(kib%512+1) << 10
			flows := []*Flow{
				start(n, pathA, bytes, float64(srcA%80+10)*mib),
				start(n, Path(l), 2*bytes, float64(srcB%80+10)*mib),
				start(n, Path(m), 3*bytes, 40*mib),
			}
			o := outcome{ends: make([]time.Duration, len(flows))}
			for i, f := range flows {
				o.rates = append(o.rates, f.rate)
				finishAt(e, f, &o.ends[i])
			}
			e.Run()
			return o
		}
		return reflect.DeepEqual(run(true), run(false))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFlowConservation(t *testing.T) {
	// For any two flows started together on one link, the sum of bytes
	// delivered over any horizon never exceeds capacity * time.
	prop := func(capMiB, aMiB, bMiB uint8, bytesA, bytesB uint16) bool {
		capL := float64(capMiB%100+20) * mib
		ra := float64(aMiB%80+10) * mib
		rb := float64(bMiB%80+10) * mib
		na := int64(bytesA%200+1) * 64 << 10
		nb := int64(bytesB%200+1) * 64 << 10
		e := sim.NewEngine()
		n := NewNetworkOn(e)
		l := NewLink("l", capL, nil)
		var endA, endB float64
		e.Go("a", func(p *sim.Proc) {
			n.Transfer(p, Path(l), na, ra)
			endA = p.Now().Seconds()
		})
		e.Go("b", func(p *sim.Proc) {
			n.Transfer(p, Path(l), nb, rb)
			endB = p.Now().Seconds()
		})
		e.Run()
		horizon := math.Max(endA, endB)
		// Work conservation bound: total bytes <= min(capacity, ra+rb) * T
		// within small rounding tolerance.
		rate := math.Min(capL, ra+rb)
		return float64(na+nb) <= rate*horizon*1.001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
