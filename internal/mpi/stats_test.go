package mpi

// One owner per count: the Stats structs are the live counters and the
// registry gauges are derived from their fields.

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
	"scimpich/internal/obs"
)

// gaugeDump runs a 2-node ping-pong of one message per protocol under plan
// and returns the world and its registry's gauges, name -> value.
func gaugeDump(t *testing.T, plan *fault.Plan) (*World, map[string]int64) {
	t.Helper()
	cfg := DefaultConfig(2, 1)
	cfg.SCI.Fault = plan
	cfg.Metrics = obs.NewRegistry()
	var w *World
	Run(cfg, func(c *Comm) {
		w = c.World()
		// Short, eager and rendezvous, each contiguous and as a vector of
		// every other int64: the short one is packed by the generic engine,
		// the rendezvous one by direct_pack_ff.
		for tag, size := range []int{64, 4 << 10, 256 << 10} {
			vec := datatype.Vector(size/8, 1, 2, datatype.Int64).Commit()
			buf := make([]byte, vec.Extent())
			if c.Rank() == 0 {
				c.Send(buf, size, datatype.Byte, 1, tag)
				c.Send(buf, 1, vec, 1, tag)
			} else {
				c.Recv(buf, size, datatype.Byte, 0, tag)
				c.Recv(buf, 1, vec, 0, tag)
			}
		}
	})
	var text bytes.Buffer
	cfg.Metrics.WriteText(&text)
	gauges := map[string]int64{}
	for _, m := range regexp.MustCompile(`(?m)^gauge +(\S+) +(-?\d+)$`).FindAllStringSubmatch(text.String(), -1) {
		gauges[m[1]], _ = strconv.ParseInt(m[2], 10, 64) // the pattern admits only integers
	}
	return w, gauges
}

// TestEveryStatsFieldIsPublished: each int64 field of sci.Stats,
// mpi.DeviceStats and the pack totals has exactly one gauge, named after
// the field and carrying its value. The comparison ignores case and
// underscores, so it does not depend on how a gauge name is derived.
func TestEveryStatsFieldIsPublished(t *testing.T) {
	w, gauges := gaugeDump(t, nil)
	ff, generic := w.PackStats()
	for _, s := range []struct {
		base, label string
		stats       any
	}{
		{"mpi.device.", "{rank=1}", w.Stats(1)},
		{"sci.node.", "{node=0}", w.InterconnectStats(0)},
		{"pack.", "{engine=direct_pack_ff}", ff},
		{"pack.", "{engine=generic}", generic},
	} {
		published := map[string]int64{} // squashed gauge name -> value
		for name, v := range gauges {
			if strings.HasPrefix(name, s.base) && strings.HasSuffix(name, s.label) {
				field := strings.TrimSuffix(strings.TrimPrefix(name, s.base), s.label)
				published[strings.ReplaceAll(field, "_", "")] = v
			}
		}
		v := reflect.ValueOf(s.stats)
		fields, nonZero := 0, false
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type.Kind() != reflect.Int64 {
				continue
			}
			fields++
			got, ok := published[strings.ToLower(f.Name)]
			if !ok {
				t.Errorf("%T.%s has no gauge %s*%s", s.stats, f.Name, s.base, s.label)
			} else if got != v.Field(i).Int() {
				t.Errorf("%T.%s = %d, its gauge reads %d", s.stats, f.Name, v.Field(i).Int(), got)
			}
			nonZero = nonZero || got != 0
		}
		if len(published) != fields {
			t.Errorf("%d gauges %s*%s for the %d int64 fields of %T: %v", len(published), s.base, s.label, fields, s.stats, published)
		}
		if !nonZero {
			t.Errorf("every gauge %s*%s is zero: the run did not exercise the layer", s.base, s.label)
		}
	}
}

// TestRetriesAggregatePublished: sci.retries, the name the repo's benchmark
// reads, is the sum of the per-node retry gauges, and a link disturbance the
// transfers ride out makes it non-zero.
func TestRetriesAggregatePublished(t *testing.T) {
	_, clean := gaugeDump(t, nil)
	if v, ok := clean["sci.retries"]; !ok || v != 0 {
		t.Errorf("undisturbed run: sci.retries = %d (published: %v), want a published 0", v, ok)
	}
	w, gauges := gaugeDump(t, fault.New(1).DisturbLink(0, 1, 0, 40*time.Microsecond))
	var sum int64
	for name, v := range gauges {
		if strings.HasPrefix(name, "sci.node.retries{") {
			sum += v
		}
	}
	if got := gauges["sci.retries"]; got == 0 || got != sum {
		t.Errorf("sci.retries = %d, the per-node gauges sum to %d (want equal and non-zero)", got, sum)
	}
	if direct := w.InterconnectStats(0).Retries + w.InterconnectStats(1).Retries; direct != sum {
		t.Errorf("the nodes counted %d retries, the gauges say %d", direct, sum)
	}
}
