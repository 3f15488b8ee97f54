package flow

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"scimpich/internal/obs"
	"scimpich/internal/sim"
)

// The completion heap replaced two scans over every active flow. They live on
// here as the oracle the heap is checked against: the timer scan below, the
// retirement scan in scanProbe.retiring.

// scanSoonest is the timer scan: the least delay over every active flow.
func scanSoonest(n *Network, now time.Duration) time.Duration {
	soonest := time.Duration(math.MaxInt64)
	for _, f := range n.flows {
		d := sim.RateDuration(int64(math.Ceil(f.remainingAt(now))), f.rate)
		if d < soonest {
			soonest = d
		}
	}
	return soonest
}

// TestCompletionKeyIsFirstFinishedTime checks the key against its
// definition over anchors from a byte to a pebibyte, rates from a KB/s to
// 10 GB/s and up to a month of virtual time: the flow reads as finished at
// its key and not a nanosecond before — and, from any instant on the way, the
// timer delay points no further before the key than keySlack allows, which
// is what nextDelay's pruning rests on.
func TestCompletionKeyIsFirstFinishedTime(t *testing.T) {
	prop := func(mantissa uint32, byteExp, rateExp uint8, at uint32, partial bool, elapsed uint16) bool {
		f := &Flow{
			anchorAt:        time.Duration(at) * 600 * time.Microsecond,
			anchorRemaining: math.Ldexp(1+float64(mantissa)/(1<<32), int(byteExp%51)),
			rate:            1e3 * math.Pow(10, float64(rateExp%71)/10),
		}
		if !partial {
			f.anchorRemaining = math.Ceil(f.anchorRemaining) // a fresh flow: whole bytes
		}
		key := f.completionKey()
		if key == neverKey {
			return f.anchorRemaining/f.rate > 1e9
		}
		for _, now := range []time.Duration{f.anchorAt, key - 1,
			f.anchorAt + time.Duration(float64(key-f.anchorAt)*float64(elapsed)/(1<<16))} {
			if now >= f.anchorAt && now+f.delayAt(now) < key-keySlack(key) {
				return false
			}
		}
		return f.remainingAt(key) <= finishedBelow &&
			(key == f.anchorAt || f.remainingAt(key-1) > finishedBelow)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// scanProbe is the network's scheduler in TestCompletionHeapMatchesScan: the
// engine, with every arm of the completion timer checked against the scans.
type scanProbe struct {
	*sim.Engine
	t       *testing.T
	n       *Network
	retired []uint64 // admission ids of StartCall flows in continuation order
	arms    int
}

// AfterCall is called by reallocate to arm the timer, after its solve and
// before its completions: the delay must be the scan's, the heap must be a
// heap, and every flow's key must bound its delay the way nextDelay's pruning
// assumes. The timer it returns fires through due.
func (pr *scanProbe) AfterCall(d time.Duration, fn func(any), arg any) sim.Timer {
	n, now := pr.n, pr.Now()
	pr.arms++
	if want := scanSoonest(n, now); d != want {
		pr.t.Errorf("at %v: armed %v, the scan over %d flows finds %v", now, d, len(n.flows), want)
	}
	for i, f := range n.flows {
		if f.heapIdx != i || (i > 0 && n.flows[(i-1)/2].key > f.key) {
			pr.t.Errorf("at %v: heap broken at %d (idx %d, key %v, parent key %v)",
				now, i, f.heapIdx, f.key, n.flows[(i-1)/2].key)
		}
		if f.key <= now {
			pr.t.Errorf("at %v: flow %d with key %v is still active", now, f.id, f.key)
		}
		if predicted := now + f.delayAt(now); predicted < f.key-keySlack(f.key) {
			pr.t.Errorf("at %v: flow %d predicted to finish at %v, before key %v - slack %v",
				now, f.id, predicted, f.key, keySlack(f.key))
		}
	}
	return pr.Engine.AfterCall(d, pr.due, nil)
}

// due fires the completion timer between the retirement scan and a check of
// what the heap retired.
func (pr *scanProbe) due(any) { pr.retiring(pr.n.reallocate) }

// retiring runs pass — something that calls reallocate once at this instant —
// and checks it against the retirement scan, the flows that read as finished
// now: pass continued exactly the StartCall flows among them, in admission
// order, and of the StartBatch flows active now it completed exactly those.
func (pr *scanProbe) retiring(pass func()) {
	now, mark := pr.Now(), len(pr.retired)
	var want []uint64
	owned := map[*Flow]bool{} // the active StartBatch flows, and whether each reads as finished
	for _, f := range pr.n.flows {
		finished := f.remainingAt(now) <= 1e-9
		switch {
		case f.fn == nil:
			owned[f] = finished
		case finished:
			want = append(want, f.id)
		}
	}
	slices.Sort(want)
	pass()
	if got := pr.retired[mark:]; !slices.Equal(got, want) {
		pr.t.Errorf("at %v: continued %v, the scan finds %v", now, got, want)
	}
	for f, finished := range owned {
		if f.Done().Done() != finished {
			pr.t.Errorf("at %v: flow %d reads done=%v, the scan finds finished=%v", now, f.id, f.Done().Done(), finished)
		}
	}
}

// heapScenario is one random workload for TestCompletionHeapMatchesScan: the
// links and flows of a netSpec, with the choices netSpec leaves open drawn
// from Seed.
type heapScenario struct {
	Net  netSpec
	Seed int64
}

// TestCompletionHeapMatchesScan: over random networks — shared links,
// weighted hops, congestion models, flows of equal size started at equal
// instants so that completions tie, and completions that start their
// successors at the same instant, from StartCall continuations and processes
// awaiting StartBatch flows alike — every reallocate retires the set the scan
// finds, continues it in its order, and arms the delay the scan finds.
func TestCompletionHeapMatchesScan(t *testing.T) {
	models := []CongestionModel{nil, SCIRingCongestion{}, BusCongestion{PerFlowPenalty: 0.05, Floor: 0.4}}
	sizes := []int64{1, 4096, 64 << 10, 100_000, 1 << 20}
	arms := 0
	prop := func(sc heapScenario) bool {
		rng := rand.New(rand.NewSource(sc.Seed))
		pr := &scanProbe{Engine: sim.NewEngine(), t: t}
		pr.n = NewNetworkOn(pr)
		links := make([]*Link, len(sc.Net.LinkCaps))
		for i, c := range sc.Net.LinkCaps {
			links[i] = NewLink("l", float64(c)*mib, models[rng.Intn(len(models))])
		}
		// launch admits one flow and, when it completes, up to two
		// generations of successors on the same path at the instant of the
		// completion: from the StartCall continuation, or from a process
		// awaiting the StartBatch flow.
		var launch func(path []Hop, srcCap float64, generation int)
		launch = func(path []Hop, srcCap float64, generation int) {
			id, bytes := pr.n.nextID, sizes[rng.Intn(len(sizes))]
			next := func() {
				if generation < 2 && rng.Intn(2) == 0 {
					launch(path, srcCap, generation+1)
				}
			}
			pr.retiring(func() {
				if rng.Intn(2) == 0 {
					pr.n.StartCall(path, bytes, srcCap, func(any) { pr.retired = append(pr.retired, id); next() }, nil)
					return
				}
				f := start(pr.n, path, bytes, srcCap)
				pr.Go("owner", func(p *sim.Proc) { p.Await(f.Done()); next() })
			})
		}
		for i, crosses := range sc.Net.FlowPaths {
			var path []Hop
			for j, used := range crosses {
				if used {
					path = append(path, Hop{Link: links[j], Weight: []float64{1, 1, 0.25}[rng.Intn(3)]})
				}
			}
			if rng.Intn(8) == 0 {
				path = nil // bound by its source only
			}
			srcCap := float64(sc.Net.FlowCaps[i]) * mib
			for range rng.Intn(3) + 1 { // copies tie with each other
				pr.Engine.After(time.Duration(rng.Intn(3))*200*time.Microsecond, func() { launch(path, srcCap, 0) })
			}
		}
		pr.Run()
		if len(pr.n.flows) != 0 {
			t.Errorf("%d flows never finished", len(pr.n.flows))
		}
		arms += pr.arms
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d timer arms checked", arms)
}

// TestReentrantCompletions: completions that start flows re-enter reallocate
// while it is walking its retired set. Three flows finish at one instant;
// each continuation starts a successor, whose own completion starts a third
// generation. Every completion must be delivered once, the tied ones in
// admission order, and each generation one transfer time after the last.
func TestReentrantCompletions(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	type hit struct {
		lane, generation int
		at               time.Duration
	}
	var got []hit
	lanes := make([][]Hop, 3)
	for i := range lanes {
		lanes[i] = Path(NewLink("l", 100*mib, nil))
	}
	type cont struct{ lane, generation int }
	var completed func(any)
	completed = func(arg any) {
		c := arg.(*cont)
		got = append(got, hit{c.lane, c.generation, e.Now()})
		if c.generation < 2 {
			n.StartCall(lanes[c.lane], 25*mib, 100*mib, completed, &cont{c.lane, c.generation + 1})
		}
	}
	for lane := range lanes {
		n.StartCall(lanes[lane], 25*mib, 100*mib, completed, &cont{lane, 0})
	}
	e.Run()
	var want []hit
	for generation := 0; generation < 3; generation++ {
		for lane := range lanes {
			want = append(want, hit{lane, generation, time.Duration(generation+1) * 250 * time.Millisecond})
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("completions %v, want %v", got, want)
	}
	if len(n.finished) != 0 || len(n.free) != 3 {
		t.Errorf("after the run: %d flows on the retired stack, %d on the free list; want 0 and 3",
			len(n.finished), len(n.free))
	}
}

// TestStartedFlowIsNeverRecycled: a flow returned by StartBatch is
// the caller's for good. After it finished, while Transfer and StartCall
// recycle flows through the free list, it is never on that list nor active
// again, and still reads as done at rate zero.
func TestStartedFlowIsNeverRecycled(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	l := NewLink("l", 100*mib, nil)
	owned := append(n.StartBatch([][]Hop{Path(l), nil}, 4096, 50*mib),
		start(n, Path(l), 4096, 50*mib), start(n, nil, 0, 50*mib))
	check := func(when string) {
		for i, f := range owned {
			if slices.Contains(n.free, f) || slices.Contains(n.flows, f) {
				t.Fatalf("%s: owned flow %d is back in the network", when, i)
			}
			if !f.Done().Done() || f.rate != 0 {
				t.Fatalf("%s: owned flow %d reads done=%v rate=%g", when, i, f.Done().Done(), f.rate)
			}
		}
	}
	e.Go("traffic", func(p *sim.Proc) {
		p.Sleep(time.Second) // the owned flows are long finished
		check("before traffic")
		for i := 0; i < 8; i++ {
			n.StartCall(Path(l), 4096, 50*mib, func(any) { check("in a continuation") }, nil)
			n.Transfer(p, Path(l), 4096, 50*mib)
			check("after a transfer")
		}
	})
	e.Run()
	if len(n.free) == 0 {
		t.Error("Transfer and StartCall recycled nothing")
	}
}

// TestAllocsFlowLifecycle pins the steady state of the two forms whose flows
// the network owns, with metrics on and a population of other flows in the
// heap: a Transfer, and a StartCall with its continuation, allocate nothing.
// Every pass cancels the completion timer and arms a new one; a cancelled
// event leaves the engine's queue at once, so the slot it gives back is the
// one the new timer takes, however far away the long flows' completion is.
func TestAllocsFlowLifecycle(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	n.SetMetrics(obs.NewRegistry())
	shared := NewLink("shared", 100*mib, SCIRingCongestion{})
	long := make([][]Hop, 32)
	for i := range long {
		long[i] = Path(NewLink("l", 100*mib, nil))
		if i%4 == 0 {
			long[i] = append(long[i], Hop{Link: shared, Weight: 0.25})
		}
	}
	short := Path(NewLink("s", 100*mib, nil), shared)
	continued := 0
	count := func(any) { continued++ }
	e.Go("driver", func(p *sim.Proc) {
		n.StartBatch(long, 1<<40, 10*mib)
		transfer := func() { n.Transfer(p, short, 4096, 50*mib) }
		call := func() {
			n.StartCall(short, 4096, 50*mib, count, nil)
			p.Sleep(time.Millisecond)
		}
		for _, op := range []struct {
			name string
			fn   func()
		}{{"Transfer", transfer}, {"StartCall", call}} {
			for i := 0; i < 4; i++ { // warm the free lists and the scratch
				op.fn()
			}
			if a := testing.AllocsPerRun(100, op.fn); a != 0 {
				t.Errorf("%s: %v allocs/op in steady state, want 0", op.name, a)
			}
		}
		e.Stop() // the long flows would run for simulated hours
	})
	e.Run()
	if continued != 105 {
		t.Errorf("%d continuations ran, want 105", continued)
	}
}

// TestSolverCostMetrics: the solver publishes what it cost the host. Three
// flows on three links of their own start at one instant and finish at
// another: four passes (three starts, one timer), each start re-anchoring
// its own flow only, and arms that evaluate one flow after the first
// (the same-instant shortcut) — not every active flow.
func TestSolverCostMetrics(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetworkOn(e)
	for i := 0; i < 3; i++ {
		start(n, Path(NewLink("l", 100*mib, nil)), 25*mib, 100*mib)
	}
	e.Run()
	got := n.Stats()
	if got.Solves != 4 || got.Reanchored != 3 || got.HeapVisits != 3 {
		t.Errorf("Stats() = %+v, want 4 solves, 3 re-anchored, 3 heap visits", got)
	}
}
