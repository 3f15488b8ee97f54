package mpi

// A message costs what it touches: the per-message budget of the
// short-message path (allocations, process switches, events), the device as
// a serial server with stackless and process-served kinds, and envelope
// recycling under injected duplicates.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"scimpich/internal/allocwin"
	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// TestEnvKindNames: every envelope kind prints under a name of its own, so
// a trace line or the device's "unexpected envelope" panic never says
// "unknown" for a kind that exists.
func TestEnvKindNames(t *testing.T) {
	seen := map[string]envKind{}
	for k := envKind(0); k < envKindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("envKind %d has no name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("envKind %d and %d are both %q", int(prev), int(k), name)
		}
		seen[name] = k
	}
	if got := envKindCount.String(); got != "unknown" {
		t.Errorf("out-of-range kind prints %q, want \"unknown\"", got)
	}
	if envOSC != 10 || envOSCReply != 11 {
		t.Errorf("envOSC/envOSCReply = %d/%d: flight dumps record kinds by number, they must stay 10/11",
			envOSC, envOSCReply)
	}
}

// TestIsendFailureReachesWaitChecked: a fault under a nonblocking send — the
// peer's node crashes mid-rendezvous — completes the request with the typed
// error instead of panicking inside the helper process: Wait returns it,
// again on a second call, and the run ends without a hang.
func TestIsendFailureReachesWaitChecked(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(3).CrashNode(1, 500*time.Microsecond)
	cfg.Protocol.RendezvousTimeout = AutoTimeout
	payload := fill(2 << 20) // long enough to straddle the crash
	var first, again, recvErr error
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			r := c.Isend(payload, len(payload), datatype.Byte, 1, 0)
			_, first = r.Wait()
			_, again = r.Wait()
		case 1:
			dst := make([]byte, len(payload))
			_, recvErr = c.RecvTimeout(dst, len(dst), datatype.Byte, 0, 0, AutoTimeout)
		}
	})
	var lost sci.ErrConnectionLost
	if !errors.As(first, &lost) || lost.To != 1 {
		t.Errorf("Wait = %v, want sci.ErrConnectionLost toward node 1", first)
	}
	if !errors.As(again, &lost) {
		t.Errorf("second Wait = %v, want the same typed error", again)
	}
	if recvErr == nil {
		t.Error("the crashed receiver's receive succeeded")
	}
}

// pingPongCost runs 64 B inter-node round trips inside one world and
// returns the steady-state host cost of one: allocations, process switches
// and events.
func pingPongCost(t *testing.T) (allocs, switches, events float64) {
	return pingPongCostAt(t, 0, 1)
}

// pingPongCostAt is pingPongCost with the round trip's two tags chosen.
func pingPongCostAt(t *testing.T, ping, pong int) (allocs, switches, events float64) {
	const size, warm, n = 64, 200, 2000
	cfg := DefaultConfig(2, 1)
	f := NewFabric(cfg)
	win := allocwin.New(t)
	var ev, sw, el uint64
	NewWorldOn(f, cfg).Run(func(c *Comm) {
		buf := make([]byte, size)
		round := func() {
			if c.Rank() == 0 {
				must(c.Send(buf, size, datatype.Byte, 1, ping))
				must1(c.Recv(buf, size, datatype.Byte, 1, pong))
			} else {
				must1(c.Recv(buf, size, datatype.Byte, 0, ping))
				must(c.Send(buf, size, datatype.Byte, 0, pong))
			}
		}
		for i := 0; i < warm; i++ {
			round()
		}
		must(c.Barrier())
		if c.Rank() == 0 {
			win.Open()
			ev, sw, el = f.Events(), f.ProcSwitches(), f.SleepsElided()
		}
		for i := 0; i < n; i++ {
			round()
		}
		if c.Rank() == 0 {
			win.Close()
			ev, sw, el = f.Events()-ev, f.ProcSwitches()-sw, f.SleepsElided()-el
		}
	})
	t.Logf("64 B round trip: %.2f allocs, %.1f B, %.2f proc switches, %.2f sleeps elided, %.2f events",
		float64(win.Objects())/n, float64(win.Bytes())/n, float64(sw)/n, float64(el)/n, float64(ev)/n)
	return float64(win.Objects()) / n, float64(sw) / n, float64(ev) / n
}

// TestAllocsPingPongBudget pins the allocations of a 64 B inter-node round
// trip at any tag: none. Before PR 17 it spent 26 (1 424 B): an envelope, a
// delivery closure, a posted-receive envelope, a recvReq, a Future, a Request
// and two Status values per message, plus the channel hand-off boxes of the
// device; until PR 23 the one Request each Recv handed back with its *Status.
// Recv returns the Status by value and recycles the Request.
// It is measured at tags 0/1 and at 1000/1001 and must read the same: Go
// boxes an integer below 256 into an interface for free, so with small tags
// alone this gate passed while every trace call site, tracer or not, boxed
// its tag and byte count — 8 allocations per round trip at tags 1000/1001.
// (The payload stays at 64 B: that is what makes the message short.)
func TestAllocsPingPongBudget(t *testing.T) {
	if allocwin.RaceEnabled {
		t.Skip("allocation budgets are not checked under the race detector")
	}
	small, _, _ := pingPongCostAt(t, 0, 1)
	large, _, _ := pingPongCostAt(t, 1000, 1001)
	if small >= 0.5 || large >= 0.5 {
		t.Errorf("%.2f allocations per 64 B round trip at tags 0/1, %.2f at tags 1000/1001, want none (2 until PR 23, 26 before PR 17)", small, large)
	}
	if d := small - large; d < -0.05 || d > 0.05 { // one boxed argument is 1.00
		t.Errorf("%.2f allocations per 64 B round trip at tags 0/1 but %.2f at tags 1000/1001: a call site boxes its arguments", small, large)
	}
}

// TestSwitchesPingPongBudget pins the goroutine hand-offs of the same round
// trip: 2 process switches and 24 events. Before PR 17 it was 22 switches,
// 10 of them the two device daemons: a posted receive that matches nothing
// and a short message into a contiguous buffer are served by event
// callbacks, so the daemons are not woken at all. Until PR 23 it was 12, the
// rank processes' own sleeps (4 per Send, 2 per Recv): while the partner is
// parked in its receive nothing else is due before a rank's wake, so those
// sleeps are elided (sim.Proc.Sleep) and what is left is the one wake per
// Recv when the message is in. The events stay, because each hop's place in
// the same-instant order is part of the virtual-time contract.
func TestSwitchesPingPongBudget(t *testing.T) {
	_, switches, events := pingPongCost(t)
	if switches > 4 {
		t.Errorf("%.2f process switches per 64 B round trip, budget is 4 (2 expected, 12 until PR 23)", switches)
	}
	if events >= 24.5 { // the measuring window cuts a few events at its edges
		t.Errorf("%.2f events per 64 B round trip, it always took 24", events)
	}
}

// TestSimCountersPublished: what a run cost the simulator is in the metric
// registry beside what it did in the model — the engine's events, process
// switches, started processes, elided sleeps, cancelled timers and deepest
// heap as the fabric counted them, and the flow solver's passes, re-anchored
// flows and heap visits. The rendezvous exchange puts 64 KiB chunks through
// the flow network in both directions at once, and a solver pass that finds
// the completion timer armed cancels it; in that exchange both ranks wake at
// the same instants and every sleep yields, so a one-way short message
// follows, whose sender sleeps alone. The counts are counters, the deepest
// heap a high-water gauge.
func TestSimCountersPublished(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Metrics = obs.NewRegistry()
	f := NewFabric(cfg)
	NewWorldOn(f, cfg).Run(func(c *Comm) {
		out, in := make([]byte, 256<<10), make([]byte, 256<<10)
		must1(c.Sendrecv(out, len(out), datatype.Byte, c.Rank()^1, 0, in, len(in), datatype.Byte, c.Rank()^1, 0))
		must(c.Barrier())
		if c.Rank() == 0 {
			must(c.Send(out, 64, datatype.Byte, 1, 1))
		} else {
			must1(c.Recv(in, 64, datatype.Byte, 0, 1))
		}
	})
	for _, g := range []struct {
		name string
		want uint64
	}{
		{"sim.events", f.Events()},
		{"sim.proc_switches", f.ProcSwitches()},
		{"sim.procs_started", f.ProcsStarted()},
		{"sim.sleeps_elided", f.SleepsElided()},
		{"sim.timers_cancelled", f.TimersCancelled()},
	} {
		if got := cfg.Metrics.Counter(g.name).Value(); got == 0 || got != int64(g.want) {
			t.Errorf("published %s = %d, the fabric counted %d", g.name, got, g.want)
		}
	}
	if got, want := cfg.Metrics.Gauge("sim.heap_depth_max").Value(), int64(f.HeapDepthMax()); got == 0 || got != want {
		t.Errorf("published high-water sim.heap_depth_max = %d, the fabric counted %d", got, want)
	}
	solves := cfg.Metrics.Counter("flow.solves").Value()
	reanchored := cfg.Metrics.Counter("flow.reanchored").Value()
	visits := cfg.Metrics.Counter("flow.heap_visits").Value()
	if solves == 0 || reanchored == 0 || visits == 0 || reanchored > 2*solves || visits > 2*solves {
		t.Errorf("%d solver passes re-anchored %d flows and visited %d: want all positive, and a pass to touch a flow or two",
			solves, reanchored, visits)
	}
}

// TestDeviceServesInArrivalOrder: the device is a serial server whatever
// serves a kind. A stackless kind and a process-served kind arriving back
// to back, stackless kinds arriving at the same instant, and a stackless
// kind arriving while the daemon is busy are each handled in arrival order,
// handlerLatency (500 ns) after the later of their arrival and the end of
// the previous handler. The instants are the ones the parent commit's
// all-daemon device produced for the same script.
func TestDeviceServesInArrivalOrder(t *testing.T) {
	vec := datatype.Vector(8, 1, 2, datatype.Int64).Commit() // 64 B in 8 blocks: unpacked on the daemon, 1 760 ns
	type stamp struct {
		what string
		at   time.Duration
	}
	var got []stamp
	Run(DefaultConfig(1, 1), func(c *Comm) {
		d, w, p := c.rk.dev, c.rk.w, c.p
		mark := func(what string, f *sim.Future) {
			w.host.Go("observer", func(q *sim.Proc) { q.Await(f); got = append(got, stamp{what, q.Now()}) })
		}
		probe := func(what string) {
			pr := &probeReq{ctx: c.ctx, src: AnySource, tag: AnyTag, immediate: true, done: sim.NewFuture()}
			mark(what, pr.done)
			d.post(w.newEnvelope(envelope{kind: envLocalProbe, probe: pr}))
		}
		selfSend := func(tag int) {
			w.ring(p, 0, 0, envelope{kind: envShort, tag: tag, ctx: c.ctx, bytes: 64, payload: make([]byte, 64)}, false)
		}
		until := func(at time.Duration) { p.Sleep(at - p.Now()) }
		buf := make([]byte, 128)

		// A: a stackless kind and a process-served kind back to back at an
		// idle device.
		mark("A.recv", &c.Irecv(buf, 1, vec, 0, 1).done)
		until(10 * time.Microsecond)
		probe("A.probe")
		selfSend(1)

		// B: three stackless kinds at the same instant.
		until(20 * time.Microsecond)
		ch := sim.NewChan(1)
		probe("B.probe1")
		d.post(w.newEnvelope(envelope{kind: envOSCReply, reply: ch}))
		probe("B.probe2")
		w.freeEnvelope(c.ctlEnvelope(p.Recv(ch)))
		got = append(got, stamp{"B.reply", p.Now()})

		// C: a stackless kind that arrives while the daemon is busy waits
		// for the handler in progress to end.
		mark("C.recv", &c.Irecv(buf, 1, vec, 0, 2).done)
		until(30 * time.Microsecond)
		selfSend(2)
		p.Sleep(600 * time.Nanosecond)
		probe("C.probe")
	})
	want := []stamp{
		{"A.probe", 10500}, {"A.recv", 12760},
		{"B.probe1", 20500}, {"B.reply", 21000}, {"B.probe2", 21500},
		{"C.recv", 32260}, {"C.probe", 32760},
	}
	if len(got) != len(want) {
		t.Fatalf("handled %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("handler %d: %s at %d ns, want %s at %d ns", i, got[i].what, got[i].at, want[i].what, want[i].at)
		}
	}
}

// TestEnvelopeRecycleUnderDuplicates: a short/eager/rendezvous storm in both
// directions with every fourth message-bearing packet retransmitted. An
// injected duplicate is an envelope of its own, so the device can free each
// packet it has read: every byte arrives, every injected duplicate is
// dropped exactly once, and no reader ever sees a recycled envelope (each
// read checks the generation stamp and would panic). After the run every
// envelope is back in the free list, none twice, and they were reused.
func TestEnvelopeRecycleUnderDuplicates(t *testing.T) {
	sizes := []int{64, 4 << 10, 100, 256 << 10, 12 << 10, 1} // short, eager and rendezvous, interleaved
	for _, seed := range []uint64{1, 7, 13} {
		cfg := DefaultConfig(2, 1)
		cfg.SCI.Fault = fault.New(seed).WithDuplicates(0.25)
		cfg.Flight = flight.New(1 << 14)
		var w *World
		Run(cfg, func(c *Comm) {
			w = c.World()
			peer := 1 - c.Rank()
			for round := 0; round < 8; round++ {
				var reqs []*Request
				in := make([][]byte, len(sizes))
				for i, n := range sizes {
					in[i] = make([]byte, n)
					reqs = append(reqs, c.Irecv(in[i], n, datatype.Byte, peer, i))
				}
				for i, n := range sizes {
					must(c.Send(stormPayload(c.Rank(), round, i, n), n, datatype.Byte, peer, i))
				}
				must1(c.Waitall(reqs))
				for i, n := range sizes {
					if !bytes.Equal(in[i], stormPayload(peer, round, i, n)) {
						t.Errorf("seed %d round %d: %d B message from %d corrupted", seed, round, n, peer)
					}
				}
			}
		})
		var injected, dropped int64
		for _, a := range cfg.Flight.Snapshot("storm").Actors {
			if a.Dropped != 0 {
				t.Fatalf("seed %d: flight ring of %s overflowed; enlarge it", seed, a.Actor)
			}
			for _, e := range a.Events {
				if e.Kind == flight.KDupInject.String() {
					injected++
				}
			}
		}
		for r := 0; r < 2; r++ {
			dropped += w.Stats(r).Duplicates
		}
		if injected == 0 || dropped != injected {
			t.Errorf("seed %d: %d duplicates injected, %d dropped", seed, injected, dropped)
		}
		var handedOut int
		free := map[*envelope]bool{}
		for _, env := range w.envFree {
			if env.gen&1 != 0 {
				t.Errorf("seed %d: an envelope in the free list is marked handed out (generation %d)", seed, env.gen)
			}
			if free[env] {
				t.Errorf("seed %d: an envelope is in the free list twice", seed)
			}
			free[env] = true
			handedOut += int(env.gen / 2)
		}
		t.Logf("seed %d: %d duplicates injected and dropped; %d envelopes carried %d packets",
			seed, injected, len(free), handedOut)
		if len(free) == 0 || handedOut < 10*len(free) {
			t.Errorf("seed %d: %d envelopes for %d packets: the free list is not recycling", seed, len(free), handedOut)
		}
	}
}

// stormPayload is the message rank sends as number i of a round.
func stormPayload(rank, round, i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(rank*131 + round*31 + i*7 + j)
	}
	return b
}
