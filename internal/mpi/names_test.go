package mpi

import (
	"fmt"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
)

// TestNamesUnchanged: a world cuts each kind's names from one string, and
// every name must read exactly what formatting it on its own did. On a 3x2
// world whose node 2 crashes, that is each rank, device and node actor, each
// link of the ring, the adapters and the memory buses, and the deadlock
// report of a rank left waiting. (The one-sided windows' trace actor is
// osc.TestWindowTraceActorIsRankName.)
func TestNamesUnchanged(t *testing.T) {
	const nodes, ppn = 3, 2
	cfg := DefaultConfig(nodes, ppn)
	cfg.SCI.Fault = fault.New(1).CrashNode(2, time.Microsecond)
	rec := flight.New(0)
	cfg.Flight = rec
	f := NewFabric(cfg)
	w := NewWorldOn(f, cfg)
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s is %q, want %q", what, got, want)
		}
	}
	for r, rk := range w.ranks {
		check("rank actor", rk.actor, fmt.Sprintf("rank%d", r))
		check("device actor", rk.dev.actor, fmt.Sprintf("dev%d", r))
	}
	for n := 0; n < nodes; n++ {
		egress, ingress := w.ic.Node(n).Links()
		check("egress link", egress.Name(), fmt.Sprintf("node%d-egress", n))
		check("ingress link", ingress.Name(), fmt.Sprintf("node%d-ingress", n))
		check("ring segment", w.ic.Ring.Link(n).Name(), fmt.Sprintf("seg%d->%d", n, (n+1)%nodes))
		check("memory bus", w.buses[n].Link().Name(), fmt.Sprintf("node%d-membus", n))
	}

	// Rank 5 waits for a message nobody sends: the run ends in the deadlock
	// panic, which names it.
	var report string
	func() {
		defer func() { report = fmt.Sprint(recover()) }()
		w.Run(func(c *Comm) {
			if c.Rank() == 5 {
				must1(c.Recv(make([]byte, 8), 8, datatype.Byte, 0, 1))
			}
		})
	}()
	check("deadlock report", report, "sim: deadlock: 1 process(es) still blocked at 1µs with no pending events: rank5")

	actors := map[string]bool{}
	for _, a := range rec.Snapshot("").Actors {
		actors[a.Actor] = true
	}
	for _, want := range []string{"rank0", "rank5", "node2", "faultplan", "topology"} {
		if !actors[want] {
			t.Errorf("the flight recorder has no actor %q (it has %v)", want, actors)
		}
	}
}

// TestWorldStatsLabelsMatchNames: the label values a WorldStats tag lists
// are the names the runtime gives what an array is indexed by — sendPaths,
// depositPath and the flight.Path* codes, collKind and CollAlg — so every
// element is published under the name its index stands for. A post-mortem
// names a KPathChosen code by the same label the metric carries.
func TestWorldStatsLabelsMatchNames(t *testing.T) {
	var s WorldStats
	next := int64(0)
	count := func(n *int64) int64 { next++; *n = next; return next }
	want := map[string]int64{}
	for i, path := range sendPaths {
		want[obs.Name("mpi.sends", "path", path)] = count(&s.Sends[i])
		want[obs.Name("mpi.send.bytes", "path", path)] = count(&s.SendBytes[i])
	}
	for d := depositPath(0); d < depositPathCount; d++ {
		want[obs.Name("mpi.path.chosen", "path", d.String())] = count(&s.PathChosen[d])
	}
	for code, path := range map[int]string{flight.PathGeneric: "generic", flight.PathPIOCont: "pio-stream", flight.PathDMACont: "dma"} {
		want[obs.Name("mpi.path.chosen", "path", path)] = count(&s.PathChosen[code])
	}
	for k := collKind(0); k < collKindCount; k++ {
		for a := CollAlg(0); a < collAlgCount; a++ {
			want[obs.Name("mpi.coll.alg.chosen", "coll", k.String(), "alg", a.String())] = count(&s.CollChosen[k][a])
		}
	}
	r := obs.NewRegistry()
	r.AddStats("mpi", s)
	for name, n := range want {
		if got := r.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	for code, n := range s.PathChosen {
		line := flight.FormatEvent(flight.DumpEvent{Kind: flight.KPathChosen.String(), A: int64(code), B: 1})
		var path string
		if _, err := fmt.Sscanf(line, "deposit path %s", &path); err != nil {
			t.Fatalf("path code %d renders as %q: %v", code, line, err)
		}
		if got := r.Counter(obs.Name("mpi.path.chosen", "path", path)).Value(); got != n {
			t.Errorf("path code %d renders as %q, but mpi.path.chosen{path=%s} = %d, want %d", code, line, path, got, n)
		}
	}
}
