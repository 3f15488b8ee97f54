package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"scimpich/internal/sim"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpi.sends").Add(3)
	r.Counter("mpi.sends").Inc()
	if v := r.Counter("mpi.sends").Value(); v != 4 {
		t.Errorf("counter = %d, want 4", v)
	}
	r.Gauge("flow.active.max").Max(3)
	r.Gauge("flow.active.max").Max(9)
	r.Gauge("flow.active.max").Max(5) // must not lower a high-water mark
	if v := r.Gauge("flow.active.max").Value(); v != 9 {
		t.Errorf("high-water gauge = %d, want 9", v)
	}
	r.Histogram("sci.pio.ns").ObserveDuration(120 * time.Nanosecond)
	if c := r.Histogram("sci.pio.ns").count; c != 1 {
		t.Errorf("hist count = %d, want 1", c)
	}
}

func TestRegistryName(t *testing.T) {
	if got := Name("sci.bytes"); got != "sci.bytes" {
		t.Errorf("Name no labels = %q", got)
	}
	if got := Name("sci.bytes", "node", "3"); got != "sci.bytes{node=3}" {
		t.Errorf("Name = %q", got)
	}
	if got := Name("mpi.send", "rank", "0", "path", "rdv"); got != "mpi.send{rank=0,path=rdv}" {
		t.Errorf("Name = %q", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	r.Gauge("y").Max(2)
	r.AddStats("y", struct{ A int64 }{3})
	r.Histogram("z").Observe(4)
	r.Histogram("z").ObserveDuration(time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Histogram("z").Snapshot().Count != 0 {
		t.Error("nil registry collectors must read zero")
	}
	var buf bytes.Buffer
	r.WriteText(&buf) // must not panic
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

func TestWriteTextSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(2)
	r.Gauge("a.gauge").Max(5)
	r.Histogram("c.hist.ns").ObserveDuration(time.Microsecond)
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "a.gauge") ||
		!strings.Contains(lines[1], "b.counter") ||
		!strings.Contains(lines[2], "c.hist.ns") {
		t.Errorf("not sorted by name:\n%s", out)
	}
	if !strings.Contains(lines[2], "count=1") || !strings.Contains(lines[2], "p50=1µs") {
		t.Errorf("histogram line missing fields: %s", lines[2])
	}
}

// TestRegistryConcurrent: processes of one engine look collectors up and
// update them between yielding Sleeps while a poller dumps mid-run.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	runProcs(8, func(p *sim.Proc, _ string, _ int) {
		for i := 0; i < 500; i++ {
			r.Counter("c").Inc()
			r.Gauge("g").Max(int64(i))
			r.Histogram("h").Observe(int64(i))
			p.Sleep(time.Nanosecond)
		}
	}, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(50 * time.Nanosecond)
			r.WriteText(io.Discard)
			_ = r.Histogram("h").Snapshot()
		}
	})
	if v := r.Counter("c").Value(); v != 4000 {
		t.Errorf("counter = %d, want 4000", v)
	}
	if v := r.Gauge("g").Value(); v != 499 {
		t.Errorf("gauge max = %d, want 499", v)
	}
	if c := r.Histogram("h").count; c != 4000 {
		t.Errorf("hist count = %d, want 4000", c)
	}
}

func TestHistogramUnits(t *testing.T) {
	r := NewRegistry()
	r.Histogram("op.ns").Observe(int64(1500 * time.Microsecond))
	r.HistogramUnit("op.bytes", UnitBytes).Observe(4096)
	r.HistogramUnit("op.staged", UnitCount).Observe(37)
	// First use wins: a later lookup with a different unit must not retag.
	r.HistogramUnit("op.bytes", UnitDuration).Observe(2 * 1024 * 1024)
	if u := r.histUnits["op.bytes"]; u != UnitBytes {
		t.Errorf("op.bytes unit = %v, want bytes (first use wins)", u)
	}
	if u := r.histUnits["op.ns"]; u != UnitDuration {
		t.Errorf("plain Histogram unit = %v, want duration", u)
	}

	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"1.5ms", "4.0KiB", "2.0MiB", "37"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "4.096µs") || strings.Contains(out, "37ns") {
		t.Errorf("byte/count samples rendered as durations:\n%s", out)
	}
}

// TestAddStatsNames pins how a stats field becomes a metric name, the
// spellings dashboards and the repo's benchmark already read, that an array
// of counts is one counter per element (the tag's labels after those passed,
// zeros included), and that publishing two instances adds them (a high-water
// field keeps the larger).
func TestAddStatsNames(t *testing.T) {
	type stats struct {
		BytesWritten   int64
		OSCRequests    int64
		DMATransfers   int64
		DMASGTransfers int64  `metric:"dma.sg.transfers"`
		MaxBlock       int64  `metric:",max"`
		Name           string // not a count: skipped
	}
	r := NewRegistry()
	r.AddStats("sci", stats{1, 2, 3, 4, 60, "n"}, "engine", "ff")
	r.AddStats("sci", stats{10, 20, 30, 40, 6, "m"}, "engine", "ff")
	r.AddStats("osc", struct {
		DirectPuts int64 `metric:"puts{path=direct}"`
	}{7})
	r.AddStats("mpi", struct {
		Sends  [2]int64    `metric:"sends{path=short|rdv}"`
		Chosen [2][2]int64 `metric:"chosen{coll=bcast|scan,alg=p2p|ring}"`
	}{[2]int64{1, 0}, [2][2]int64{{2, 3}, {4, 5}}}, "world", "w")
	var buf bytes.Buffer
	r.WriteText(&buf)
	want := `counter mpi.chosen{world=w,coll=bcast,alg=p2p} 2
counter mpi.chosen{world=w,coll=bcast,alg=ring} 3
counter mpi.chosen{world=w,coll=scan,alg=p2p} 4
counter mpi.chosen{world=w,coll=scan,alg=ring} 5
counter mpi.sends{world=w,path=rdv} 0
counter mpi.sends{world=w,path=short} 1
counter osc.puts{path=direct} 7
counter sci.bytes_written{engine=ff} 11
counter sci.dma.sg.transfers{engine=ff} 44
counter sci.dma_transfers{engine=ff} 33
gauge   sci.max_block{engine=ff} 60
counter sci.osc_requests{engine=ff} 22
`
	if got := strings.Join(strings.Fields(buf.String()), " "); got != strings.Join(strings.Fields(want), " ") {
		t.Errorf("AddStats published\n%s\nwant\n%s", buf.String(), want)
	}
	var nilReg *Registry
	nilReg.AddStats("x", struct{ A int64 }{1}) // nil registry: no-op
}
