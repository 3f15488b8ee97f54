package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mpi.sends").Add(3)
	r.Counter("mpi.sends").Inc()
	if v := r.Counter("mpi.sends").Value(); v != 4 {
		t.Errorf("counter = %d, want 4", v)
	}
	r.SetGauge("sci.retries", 7)
	if v := r.Gauge("sci.retries").Value(); v != 7 {
		t.Errorf("gauge = %d, want 7", v)
	}
	r.Gauge("flow.active.max").Max(3)
	r.Gauge("flow.active.max").Max(9)
	r.Gauge("flow.active.max").Max(5) // must not lower a high-water mark
	if v := r.Gauge("flow.active.max").Value(); v != 9 {
		t.Errorf("high-water gauge = %d, want 9", v)
	}
	r.Histogram("sci.pio.ns").ObserveDuration(120 * time.Nanosecond)
	if c := r.Histogram("sci.pio.ns").Count(); c != 1 {
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
	r.Gauge("y").Set(2)
	r.Gauge("y").Max(2)
	r.SetGauge("y", 3)
	r.Histogram("z").Observe(4)
	r.Histogram("z").ObserveDuration(time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Histogram("z").Count() != 0 {
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
	r.SetGauge("a.gauge", 5)
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

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Max(int64(i))
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != 4000 {
		t.Errorf("counter = %d, want 4000", v)
	}
	if v := r.Gauge("g").Value(); v != 499 {
		t.Errorf("gauge max = %d, want 499", v)
	}
	if c := r.Histogram("h").Count(); c != 4000 {
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
	if u := r.HistogramUnitOf("op.bytes"); u != UnitBytes {
		t.Errorf("op.bytes unit = %v, want bytes (first use wins)", u)
	}
	if u := r.HistogramUnitOf("op.ns"); u != UnitDuration {
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

// TestSetGaugesNames pins how a stats field becomes a gauge name: these are
// the spellings dashboards and the repo's benchmark already read.
func TestSetGaugesNames(t *testing.T) {
	r := NewRegistry()
	r.SetGauges("sci.node", struct {
		BytesWritten   int64
		OSCRequests    int64
		DMATransfers   int64
		DMASGTransfers int64 `gauge:"dma_sg_transfers"`
		Ops            int64
		Name           string // not a count: skipped
	}{1, 2, 3, 4, 5, "n"}, "node", "7")
	var buf bytes.Buffer
	r.WriteText(&buf)
	want := `gauge   sci.node.bytes_written{node=7} 1
gauge   sci.node.dma_sg_transfers{node=7} 4
gauge   sci.node.dma_transfers{node=7} 3
gauge   sci.node.ops{node=7} 5
gauge   sci.node.osc_requests{node=7} 2
`
	if got := strings.Join(strings.Fields(buf.String()), " "); got != strings.Join(strings.Fields(want), " ") {
		t.Errorf("SetGauges published\n%s\nwant\n%s", buf.String(), want)
	}
	var nilReg *Registry
	nilReg.SetGauges("x", struct{ A int64 }{1}) // nil registry: no-op
}
