package mpi_test

// One home per count: each layer's stats struct is the one store of its
// counts, and a world adds every struct to the registry once, when it
// publishes.

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/osc"
)

// simCounts is what a world's fabric counted, in the shape PublishMetrics
// publishes it.
type simCounts struct {
	Events, ProcSwitches, ProcsStarted, SleepsElided, TimersCancelled int64
	HeapDepthMax                                                      int64 `metric:",max"`
}

// metric is one line of a registry dump.
type metric struct {
	kind  string
	value int64
}

// dump returns a registry's counters and gauges, name -> metric.
func dump(r *obs.Registry) map[string]metric {
	var text bytes.Buffer
	r.WriteText(&text)
	out := map[string]metric{}
	for _, m := range regexp.MustCompile(`(?m)^(counter|gauge) +(\S+) +(-?\d+)$`).FindAllStringSubmatch(text.String(), -1) {
		v, _ := strconv.ParseInt(m[3], 10, 64) // the pattern admits only integers
		out[m[2]] = metric{m[1], v}
	}
	return out
}

// disturbed is a link disturbance the transfers ride out, at a cost in
// retries: the adapter surfaces some of them as faults, which the protocol
// retries in turn.
func disturbed() *fault.Plan { return fault.New(1).DisturbLink(0, 1, 0, 200*time.Microsecond) }

// statsWorld runs one world on reg under plan: a message of each protocol
// both ways, contiguous and as a vector, one call of each collective but
// the barrier, then a put, a local put, a get and
// an accumulate in a fence epoch on a shared and on a private window, after
// which the private window is abandoned. It returns the world and every
// window it created.
func statsWorld(t *testing.T, cfg mpi.Config, plan *fault.Plan, reg *obs.Registry) (*mpi.World, []*osc.Win) {
	t.Helper()
	cfg.Metrics = reg
	cfg.SCI.Fault = plan
	var w *mpi.World
	wins := make([]*osc.Win, 2*cfg.Nodes*cfg.ProcsPerNode)
	mpi.Run(cfg, func(c *mpi.Comm) {
		w = c.World()
		peer := c.Rank() ^ 1
		for tag, size := range []int{64, 4 << 10, 256 << 10} {
			vec := datatype.Vector(size/8, 1, 2, datatype.Int64).Commit()
			buf := make([]byte, vec.Extent())
			for turn := 0; turn < 2; turn++ {
				if c.Rank() == turn {
					must(c.Send(buf, size, datatype.Byte, peer, tag))
					must(c.Send(buf, 1, vec, peer, tag))
				} else {
					must1(c.Recv(buf, size, datatype.Byte, peer, tag))
					must1(c.Recv(buf, 1, vec, peer, tag))
				}
			}
		}
		vals := mpi.Float64Bytes([]float64{1, 2})
		all := make([]byte, c.Size()*len(vals))
		must(c.Bcast(vals, 2, datatype.Float64, 0))
		must(c.Reduce(vals, make([]byte, len(vals)), 2, datatype.Float64, mpi.OpSum, 0))
		must(c.Allreduce(vals, make([]byte, len(vals)), 2, datatype.Float64, mpi.OpSum))
		must(c.Gather(vals, 2, datatype.Float64, all, 0))
		must(c.Allgather(vals, 2, datatype.Float64, all))
		must(c.Alltoall(all, 2/c.Size(), datatype.Float64, make([]byte, len(all))))
		sys := osc.NewSystem(c)
		shared := sys.CreateShared(c.AllocShared(4096), osc.DefaultConfig())
		private := sys.CreatePrivate(make([]byte, 4096), osc.DefaultConfig())
		buf := make([]byte, 64)
		for _, win := range []*osc.Win{shared, private} {
			must(win.Fence())
			must(win.Put(buf, 64, datatype.Byte, peer, 0))
			must(win.Put(buf, 64, datatype.Byte, c.Rank(), 64))
			must(win.Get(buf, 64, datatype.Byte, peer, 128))
			must(win.Accumulate(mpi.Float64Bytes([]float64{1}), 1, datatype.Float64, mpi.OpSum, peer, 256))
			must(win.Fence())
		}
		private.Abandon()
		wins[2*c.Rank()], wins[2*c.Rank()+1] = shared, private
	})
	return w, wins
}

// checkFamily holds the metrics published under base (with the given label
// suffix) to the instances of one stats struct: each int64 field is exactly
// one metric, a counter holding the sum over the instances, or, for a
// ",max"-tagged field, a gauge holding their maximum. A field's metric is
// named by its tag, or by its name compared ignoring case and underscores.
func checkFamily(t *testing.T, got map[string]metric, base, labels string, instances ...any) {
	t.Helper()
	byKey := map[string]string{} // field key -> published name
	for name := range got {
		if strings.HasPrefix(name, base) && strings.HasSuffix(name, labels) {
			byKey[strings.TrimSuffix(strings.TrimPrefix(name, base), labels)] = name
		}
	}
	typ := reflect.TypeOf(instances[0])
	matched, nonZero := 0, false
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		key, max := strings.CutSuffix(f.Tag.Get("metric"), ",max")
		want := metric{"counter", 0}
		if max {
			want.kind = "gauge"
		}
		for _, s := range instances {
			switch v := reflect.ValueOf(s).Field(i).Int(); {
			case !max:
				want.value += v
			case v > want.value:
				want.value = v
			}
		}
		name, ok := byKey[key]
		if key == "" {
			for suffix, n := range byKey {
				if strings.ReplaceAll(suffix, "_", "") == strings.ToLower(f.Name) {
					name, ok = n, true
				}
			}
		}
		if !ok {
			t.Errorf("%s.%s: no metric %s*%s", typ, f.Name, base, labels)
			continue
		}
		matched++
		if got[name] != want {
			t.Errorf("%s.%s: published %s = %v, the structs hold %v", typ, f.Name, name, got[name], want)
		}
		nonZero = nonZero || want.value != 0
	}
	if matched != len(byKey) {
		t.Errorf("%d metrics %s*%s for %d fields of %s: %v", len(byKey), base, labels, matched, typ, byKey)
	}
	if !nonZero {
		t.Errorf("every %s field is zero: the run did not exercise the layer", typ)
	}
}

// structs collects, per published family, the stats struct instances of
// the worlds added to it.
type structs struct {
	sims, devices, nodes, ff, gen, wins, flows []any
	worlds                                     []mpi.WorldStats
	faults                                     [fault.Kinds]int64
}

// add collects w's structs: its fabric's, its own, each rank's device's,
// each node's adapter's (of an inter-node world), both pack engines', each
// flow network's, the interconnect's fault counts and those of the windows
// ws.
func (s *structs) add(w *mpi.World, ws []*osc.Win) {
	s.worlds = append(s.worlds, w.WorldStats())
	for _, fs := range w.FlowStats() {
		s.flows = append(s.flows, fs)
	}
	for k, n := range w.FaultsInjected() {
		s.faults[k] += n
	}
	f := w.Fabric()
	s.sims = append(s.sims, simCounts{int64(f.Events()), int64(f.ProcSwitches()), int64(f.ProcsStarted()),
		int64(f.SleepsElided()), int64(f.TimersCancelled()), int64(f.HeapDepthMax())})
	for rank := 0; rank < w.Size(); rank++ {
		s.devices = append(s.devices, w.Stats(rank))
	}
	if n := w.Nodes(); n > 1 {
		for node := 0; node < n; node++ {
			s.nodes = append(s.nodes, w.InterconnectStats(node))
		}
	}
	ff, gen := w.PackStats()
	s.ff, s.gen = append(s.ff, ff), append(s.gen, gen)
	for _, win := range ws {
		s.wins = append(s.wins, win.Snapshot())
	}
}

// check holds every published family to the structs collected.
func (s *structs) check(t *testing.T, got map[string]metric) {
	t.Helper()
	checkFamily(t, got, "sim.", "", s.sims...)
	checkFamily(t, got, "mpi.device.", "", s.devices...)
	checkFamily(t, got, "sci.", "", s.nodes...)
	checkFamily(t, got, "pack.", "{engine=direct_pack_ff}", s.ff...)
	checkFamily(t, got, "pack.", "{engine=generic}", s.gen...)
	checkFamily(t, got, "osc.", "", s.wins...)
	checkFamily(t, got, "flow.", "", s.flows...)
	s.checkWorlds(t, got)
	for k, n := range s.faults {
		name := obs.Name("fault.injected", "kind", fault.Kind(k).String())
		if m, ok := got[name]; n != m.value || ok != (n > 0) {
			t.Errorf("%s = %v (published: %v), the interconnects counted %d", name, m, ok, n)
		}
	}
}

// checkWorlds holds the mpi.* counters but mpi.device.* to the WorldStats:
// the decisions and volumes the benchmark reads are the sums of their fields
// over the worlds, and every one of them is published as added again from
// the structs.
func (s *structs) checkWorlds(t *testing.T, got map[string]metric) {
	t.Helper()
	var sum mpi.WorldStats
	readd := obs.NewRegistry()
	for _, ws := range s.worlds {
		readd.AddStats("mpi", ws)
		for i := range ws.Sends {
			sum.Sends[i] += ws.Sends[i]
			sum.SendBytes[i] += ws.SendBytes[i]
		}
		for i, n := range ws.PathChosen {
			sum.PathChosen[i] += n
		}
		sum.PackSGBytes += ws.PackSGBytes
		sum.OSCPolled += ws.OSCPolled
		sum.OSCInterrupt += ws.OSCInterrupt
		sum.CollChosen[0][mpi.CollP2P] += ws.CollChosen[0][mpi.CollP2P]
	}
	for name, want := range map[string]int64{
		"mpi.sends{path=short}":                     sum.Sends[0],
		"mpi.sends{path=eager}":                     sum.Sends[1],
		"mpi.sends{path=rdv}":                       sum.Sends[2],
		"mpi.send.bytes{path=rdv}":                  sum.SendBytes[2],
		"mpi.path.chosen{path=dma-sg}":              sum.PathChosen[2],
		"mpi.path.chosen{path=pio-stream}":          sum.PathChosen[4],
		"mpi.pack.bytes{engine=dma_sg}":             sum.PackSGBytes,
		"mpi.osc.calls{delivery=poll}":              sum.OSCPolled,
		"mpi.osc.calls{delivery=interrupt}":         sum.OSCInterrupt,
		"mpi.coll.alg.chosen{coll=barrier,alg=p2p}": sum.CollChosen[0][mpi.CollP2P],
	} {
		if got[name] != (metric{"counter", want}) || want == 0 {
			t.Errorf("%s = %v, the worlds counted %d (want an equal, non-zero counter)", name, got[name], want)
		}
	}
	want := dump(readd)
	for name, m := range got {
		if strings.HasPrefix(name, "mpi.") && !strings.HasPrefix(name, "mpi.device.") && want[name] != m {
			t.Errorf("%s = %v, the WorldStats add up to %v", name, m, want[name])
		}
	}
	if len(want) != 53 {
		t.Errorf("WorldStats publish %d counters, want 53", len(want))
	}
}

// collKinds are the collectives in the order of WorldStats.CollChosen.
var collKinds = [...]string{"barrier", "bcast", "reduce", "allreduce", "gather", "allgather", "alltoall"}

// checkSpans holds the spans of tr, the trace of one world, to the counts
// of the same intervals in its structs: a send span per counted send of its
// protocol, a coll span per call of each collective, a pack or transfer
// span per rendezvous chunk of its deposit path, and an osc span per put,
// get and accumulate of the windows ws. It returns each count by span name.
func checkSpans(t *testing.T, tr *obs.Trace, st mpi.WorldStats, ws []*osc.Win) map[string]int64 {
	t.Helper()
	got := map[string]int64{}
	for _, sp := range tr.Spans() {
		got[sp.Category+"/"+sp.Name]++
	}
	want := map[string]int64{
		"send/short":          st.Sends[0],
		"send/eager":          st.Sends[1],
		"send/rdv":            st.Sends[2],
		"pack/direct_pack_ff": st.PathChosen[0],
		"pack/staged_ff":      st.PathChosen[1],
		"pack/dma_sg":         st.PathChosen[2],
		"pack/generic":        st.PathChosen[flight.PathGeneric],
		"transfer/dma":        st.PathChosen[flight.PathDMACont],
	}
	for k, name := range collKinds {
		for _, n := range st.CollChosen[k] {
			want["coll/"+name] += n
		}
	}
	for _, w := range ws {
		o := w.Snapshot()
		want["osc/put"] += o.Puts
		want["osc/get"] += o.Gets
		want["osc/acc"] += o.Accs
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%d %s spans, the structs counted %d", got[name], name, n)
		}
	}
	return want
}

// retries is the sum of the adapters' retry counts in w.
func retries(w *mpi.World) int64 {
	var n int64
	for node := 0; node < w.Nodes(); node++ {
		n += w.InterconnectStats(node).Retries
	}
	return n
}

// TestEveryStatsFieldIsPublished: after one inter-node world, each int64
// field of the fabric counts, mpi.DeviceStats, sci.Stats, the pack totals
// and osc.Stats has exactly one published metric, named after the field
// (or its tag) and carrying the field's sum over the instances. The
// comparison ignores case and underscores, so it does not depend on how a
// name is derived.
func TestEveryStatsFieldIsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	var s structs
	s.add(statsWorld(t, mpi.DefaultConfig(2, 1), nil, reg))
	s.check(t, dump(reg))
}

// TestRetriesAggregatePublished: sci.retries, the name the repo's benchmark
// reads, is a counter published even when it is zero, and under a link
// disturbance the transfers ride out it is the non-zero sum of the nodes'
// retries.
func TestRetriesAggregatePublished(t *testing.T) {
	clean := obs.NewRegistry()
	statsWorld(t, mpi.DefaultConfig(2, 1), nil, clean)
	if got, ok := dump(clean)["sci.retries"]; !ok || got != (metric{"counter", 0}) {
		t.Errorf("undisturbed run: sci.retries = %v (published: %v), want a published counter 0", got, ok)
	}
	reg := obs.NewRegistry()
	w, _ := statsWorld(t, mpi.DefaultConfig(2, 1), disturbed(), reg)
	sum := retries(w)
	if got := dump(reg)["sci.retries"]; got.value == 0 || got != (metric{"counter", sum}) {
		t.Errorf("sci.retries = %v, the nodes counted %d (want an equal, non-zero counter)", got, sum)
	}
}

// TestPublishedCountersAreStructSums: an intra-node world and three
// inter-node ones (adaptive, forced staged, forced DMA with the generic
// pack) publish into one registry, and every published count is the sum of
// the struct fields it comes from — over ranks, nodes, flow networks,
// windows (an abandoned one included) and the worlds — under one name
// without a node or rank label: the mpi decision counts, flow.* and, under
// the disturbed link, fault.injected{kind} included. A second
// PublishMetrics changes nothing. Each world's trace holds one span per
// interval its structs count (checkSpans), and every such span occurs.
func TestPublishedCountersAreStructSums(t *testing.T) {
	reg := obs.NewRegistry()
	var (
		worlds []*mpi.World
		s      structs
	)
	spans := map[string]int64{}
	staged, dmaGeneric := mpi.DefaultConfig(2, 1), mpi.DefaultConfig(2, 1)
	staged.Protocol.Path = mpi.PathStaged
	dmaGeneric.Protocol.Path, dmaGeneric.Protocol.UseFF = mpi.PathDMA, false
	for _, cfg := range []mpi.Config{mpi.DefaultConfig(1, 2), mpi.DefaultConfig(2, 1), staged, dmaGeneric} {
		var plan *fault.Plan
		if cfg.Nodes > 1 {
			plan = disturbed()
		}
		cfg.Tracer = obs.NewTrace(0)
		w, ws := statsWorld(t, cfg, plan, reg)
		if cfg.Nodes > 1 && retries(w) == 0 {
			t.Error("the disturbed link cost no retries")
		}
		worlds = append(worlds, w)
		s.add(w, ws)
		for name, n := range checkSpans(t, cfg.Tracer, w.WorldStats(), ws) {
			spans[name] += n
		}
	}
	for name, n := range spans {
		if n == 0 {
			t.Errorf("no %s span: the worlds did not exercise it", name)
		}
	}
	got := dump(reg)
	s.check(t, got)
	if s.faults == [fault.Kinds]int64{} {
		t.Error("the disturbed link injected no fault")
	}
	for name := range got {
		if strings.Contains(name, "{node=") || strings.Contains(name, "{rank=") {
			t.Errorf("%s: counts are summed, not labelled per instance", name)
		}
	}
	for _, name := range []string{ // the names the repo's benchmark reads
		"sci.bytes.written", "sci.bytes.read", "sci.dma.sg.transfers", "sci.retries",
		"osc.puts{path=direct}", "osc.puts{path=emulated}", "osc.gets{path=direct}", "osc.gets{path=remote-put}",
	} {
		if got[name].kind != "counter" {
			t.Errorf("%s is not a published counter", name)
		}
	}

	for _, w := range worlds {
		w.PublishMetrics(reg)
	}
	if again := dump(reg); !reflect.DeepEqual(again, got) {
		t.Error("a second PublishMetrics changed the registry")
	}
}
