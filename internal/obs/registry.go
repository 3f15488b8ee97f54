package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"time"
)

// Counter is a monotonically increasing metric. The nil counter discards
// everything.
type Counter struct {
	v int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a high-water mark: it only moves up, to the largest value it was
// raised to. The nil gauge discards everything.
type Gauge struct {
	v int64
}

// Max raises the gauge to n if n is larger. No-op on a nil gauge.
func (g *Gauge) Max(n int64) {
	if g != nil && n > g.v {
		g.v = n
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Registry is a set of named metrics. Collectors are created on first
// lookup and cached. Like every obs sink it belongs to one run at a time
// (see the package comment). The nil registry hands out nil collectors,
// which discard everything.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Name builds a labelled metric name: Name("sci.bytes", "node", "3") is
// "sci.bytes{node=3}". Labels come in key, value pairs.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteByte('=')
		sb.WriteString(labels[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram of durations in nanoseconds,
// creating it on first use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddStats adds each int64 field of the struct stats to the counter
// Name(base+"."+field, labels...), where field is the field's name in snake
// case (BytesWritten -> bytes_written, OSCRequests -> osc_requests) or the
// name its `metric:"..."` tag gives, labels included (`metric:"puts{path=direct}"`)
// and placed after those passed. An array of int64 (or of such arrays) is one
// counter per element: its tag gives a label per dimension, outermost first,
// with the values in index order (`metric:"sends{path=short|eager|rdv}"`). A
// tag ending in ",max" raises a high-water gauge instead (Gauge.Max). A stats
// struct is thereby its own publish list, and instances published into one
// registry sum; adding is not idempotent, so publish each one once.
func (r *Registry) AddStats(base string, stats any, labels ...string) {
	if r == nil {
		return
	}
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		tag, max := strings.CutSuffix(f.Tag.Get("metric"), ",max")
		name, dims, _ := strings.Cut(strings.TrimSuffix(tag, "}"), "{")
		if name == "" {
			name = snakeCase(f.Name)
		}
		r.addCounts(base+"."+name, v.Field(i), max, labels, strings.FieldsFunc(dims, func(c rune) bool { return c == ',' }))
	}
}

// addCounts adds v under name: an int64 with labels and then each of dims, a
// "key=value" label; an array of counts element by element, element j taking
// the j-th value of dims[0] ("key=v0|v1|...") and the rest of dims on. Fields
// of any other kind are not counts and add nothing.
func (r *Registry) addCounts(name string, v reflect.Value, max bool, labels, dims []string) {
	switch v.Kind() {
	case reflect.Int64:
		for _, d := range dims {
			labels = append(labels[:len(labels):len(labels)], strings.SplitN(d, "=", 2)...)
		}
		if name = Name(name, labels...); max {
			r.Gauge(name).Max(v.Int())
		} else {
			r.Counter(name).Add(v.Int())
		}
	case reflect.Array:
		key, values, _ := strings.Cut(dims[0], "=")
		vals := strings.Split(values, "|")
		if len(vals) != v.Len() {
			panic(fmt.Sprintf("obs: %s: %d label values for %d counts", name, len(vals), v.Len()))
		}
		for j, val := range vals {
			r.addCounts(name, v.Index(j), max, append(labels[:len(labels):len(labels)], key, val), dims[1:])
		}
	}
}

// snakeCase lower-cases an exported Go identifier, putting an underscore
// where a word starts: after a lower-case letter, and before the last
// capital of a run that a lower-case letter follows (DMATransfers ->
// dma_transfers).
func snakeCase(s string) string {
	isUpper := func(c byte) bool { return c >= 'A' && c <= 'Z' }
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isUpper(c) {
			if i > 0 && (!isUpper(s[i-1]) || i+1 < len(s) && !isUpper(s[i+1])) {
				sb.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// WriteText dumps every metric as plain text, sorted by name: counters and
// gauges one per line, histograms with count/min/quantiles/max as humane
// durations.
func (r *Registry) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	type entry struct {
		name string
		line string
	}
	var entries []entry
	for name, c := range r.counters {
		entries = append(entries, entry{name, fmt.Sprintf("counter %-52s %d", name, c.Value())})
	}
	for name, g := range r.gauges {
		entries = append(entries, entry{name, fmt.Sprintf("gauge   %-52s %d", name, g.Value())})
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		entries = append(entries, entry{name, fmt.Sprintf(
			"hist    %-52s count=%d min=%s p50=%s p95=%s p99=%s max=%s mean=%s",
			name, s.Count,
			time.Duration(s.Min), time.Duration(s.P50), time.Duration(s.P95),
			time.Duration(s.P99), time.Duration(s.Max), time.Duration(s.Mean))})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		fmt.Fprintln(w, e.line)
	}
}
