package obs

import "testing"

// Disabled observability must be free on the hot path: every nil collector
// and nil trace operation must be allocation-free (the acceptance criterion
// for leaving instrumentation compiled into the PIO fast path).

func TestNilObservabilityAllocFree(t *testing.T) {
	var (
		r  *Registry
		tr *Trace
	)
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")

	cases := []struct {
		name string
		fn   func()
	}{
		{"nil counter add", func() { c.Add(5) }},
		{"nil gauge max", func() { g.Max(5) }},
		{"nil histogram observe", func() { h.Observe(5) }},
		{"nil registry counter lookup", func() { r.Counter("x").Add(1) }},
		{"nil trace span", func() {
			s := tr.StartSpan(0, "a", "c", "n")
			s.SetBytes(1)
			s.End(1)
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// Enabled counters stay allocation-free too (atomics, no boxing) once the
// collector handle is cached — the pattern the layers use.

func TestCachedCollectorsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sci.bytes")
	g := r.Gauge("sci.retries")
	h := r.Histogram("sci.pio.ns")
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter add", func() { c.Add(64) }},
		{"gauge max", func() { g.Max(3) }},
		{"histogram observe", func() { h.Observe(1500) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// The benchmark pair backing the "disabled observability is free on the
// hot path" acceptance: compare ns/op and allocs/op of nil collectors
// (observability off) against live ones. Run with
// go test -bench BenchmarkCollectors -benchmem ./internal/obs/.
func BenchmarkCollectorsDisabled(b *testing.B) {
	var c *Counter
	var h *Histogram
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(64)
		h.Observe(1500)
		sp := tr.StartSpan(0, "rank0", "send", "eager")
		sp.SetBytes(64)
		sp.End(1)
	}
}

func BenchmarkCollectorsEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.bytes")
	h := r.Histogram("bench.ns")
	tr := NewTrace(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(64)
		h.Observe(1500)
		sp := tr.StartSpan(0, "rank0", "send", "eager")
		sp.SetBytes(64)
		sp.End(1)
	}
}
