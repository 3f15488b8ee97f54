package mpi

import (
	"fmt"
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
)

// flightLines renders every retained flight event as "actor text", the
// text as flight.FormatEvent (and so cmd/postmortem and the Chrome export)
// renders it, counted.
func flightLines(rec *flight.Recorder) map[string]int {
	got := map[string]int{}
	for _, ad := range rec.Snapshot("").Actors {
		for _, e := range ad.Events {
			got[ad.Actor+" "+flight.FormatEvent(e)]++
		}
	}
	return got
}

// TestTracerRecordsProtocolTimeline: a 256 KiB rendezvous leaves its span
// tree on the trace (the send, the receive's four chunks) and its protocol
// events on the flight rings (the post, the match, four chunks), each ring
// in time order.
func TestTracerRecordsProtocolTimeline(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	tr := obs.NewTrace(0)
	rec := flight.New(0)
	cfg.Tracer, cfg.Flight = tr, rec
	src := fill(256 << 10)
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, len(src), datatype.Byte, 1, 3))
		case 1:
			dst := make([]byte, len(src))
			must1(c.Recv(dst, len(dst), datatype.Byte, 0, 3))
		}
	})
	spans := map[string]int{}
	for _, s := range tr.Spans() {
		spans[fmt.Sprintf("%s %s/%s %d", s.Actor, s.Category, s.Name, s.Bytes)]++
	}
	for line, n := range map[string]int{
		"rank0 send/rdv 262144":     1,
		"dev1 recv/rdv-chunk 65536": 4, // chunks drain on the device
	} {
		if spans[line] != n {
			t.Errorf("%d x span %q, want %d", spans[line], line, n)
		}
	}
	events := flightLines(rec)
	for line, n := range map[string]int{
		"rank0 send -> rank1 tag 3 (262144B via rendezvous)":        1,
		"rank1 recv matched <- rank0 tag 3 (262144B)":               1,
		"rank1 rendezvous 1 <- rank0 chunk 65536B (65536B so far)":  1,
		"rank1 rendezvous 1 <- rank0 chunk 65536B (262144B so far)": 1,
		"rank1 rendezvous 1 with rank0 complete (262144B)":          1,
	} {
		if events[line] != n {
			t.Errorf("%d x flight %q, want %d", events[line], line, n)
		}
	}
	for _, ad := range rec.Snapshot("").Actors {
		for i := 1; i < len(ad.Events); i++ {
			if ad.Events[i].At < ad.Events[i-1].At {
				t.Fatalf("%s ring not time-ordered", ad.Actor)
			}
		}
	}
	if t.Failed() {
		for line, n := range events {
			t.Logf("%d x %s", n, line)
		}
	}
}

func TestTracerOffByDefault(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	if cfg.Tracer != nil {
		t.Fatal("tracing should default to off")
	}
	// A run with the nil tracer must work (hooks are nil-safe).
	Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			must(c.Send([]byte{1}, 1, datatype.Byte, 1, 0))
		} else {
			must1(c.Recv(make([]byte, 1), 1, datatype.Byte, 0, 0))
		}
	})
}

// TestGuardedTraceSites: the span details that format arguments are
// guarded at their call sites by the nil span they hold (the arguments would
// be boxed before a callee could decline them); the protocol events beside
// them are flight records, which take four int64 words and need no guard.
// With a tracer and a recorder attached, each site must record exactly what
// the unguarded call produced: a short, an eager and three rendezvous
// messages (contiguous, ff on both sides, generic) and an allreduce, at tags
// >= 256.
func TestGuardedTraceSites(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Protocol.Coll = CollRing
	tr := obs.NewTrace(0)
	rec := flight.New(0)
	cfg.Tracer, cfg.Flight = tr, rec
	vecA := datatype.Vector(256, 1024, 2048, datatype.Byte).Commit() // 256 KiB in 1 KiB blocks
	vecB := datatype.Vector(512, 512, 1024, datatype.Byte).Commit()  // the same bytes, flattened differently
	Run(cfg, func(c *Comm) {
		plain := make([]byte, 256<<10)
		strided := make([]byte, max(vecA.Extent(), vecB.Extent()))
		ints := make([]byte, 4<<10)
		switch c.Rank() {
		case 0:
			must(c.Send(plain, 64, datatype.Byte, 1, 300))
			must(c.Send(plain, 4<<10, datatype.Byte, 1, 301))
			must(c.Send(plain, 256<<10, datatype.Byte, 1, 302))
			must(c.Send(strided, 1, vecA, 1, 303))
			must(c.Send(strided, 1, vecA, 1, 304))
		case 1:
			must1(c.Recv(plain, 64, datatype.Byte, 0, 300))
			must1(c.Recv(plain, 4<<10, datatype.Byte, 0, 301))
			must1(c.Recv(plain, 256<<10, datatype.Byte, 0, 302))
			must1(c.Recv(strided, 1, vecA, 0, 303))
			must1(c.Recv(strided, 1, vecB, 0, 304))
		}
		must(c.Allreduce(ints, ints, len(ints)/8, datatype.Int64, OpSum))
	})
	got := flightLines(rec)
	for _, s := range tr.Spans() {
		if s.Detail != "" {
			got["span "+s.Actor+" "+s.Category+"/"+s.Name+": "+s.Detail]++
		}
	}
	for _, want := range []struct {
		line string
		n    int
	}{
		{"rank0 send -> rank1 tag 300 (64B via short)", 1},
		{"rank0 send -> rank1 tag 301 (4096B via eager)", 1},
		{"rank0 send -> rank1 tag 302 (262144B via rendezvous)", 1},
		{"rank0 send -> rank1 tag 303 (262144B via rendezvous)", 1},
		{"rank1 recv matched <- rank0 tag 300 (64B)", 1},
		{"rank1 recv matched <- rank0 tag 301 (4096B)", 1},
		{"rank1 recv matched <- rank0 tag 302 (262144B)", 1},
		{"rank1 recv matched <- rank0 tag 304 (262144B)", 1},
		{"rank1 rendezvous 1 <- rank0 clear-to-send (mode 0)", 1},
		{"rank1 rendezvous 2 <- rank0 clear-to-send (mode 1)", 1},
		{"rank1 rendezvous 3 <- rank0 clear-to-send (mode 2)", 1},
		{"rank1 rendezvous 1 <- rank0 chunk 65536B (65536B so far)", 1},
		{"rank1 rendezvous 3 <- rank0 chunk 65536B (262144B so far)", 1},
		{"span rank0 send/short: -> 1 tag 300", 1},
		{"span rank0 send/eager: -> 1 tag 301", 1},
		{"span rank0 send/rdv: -> 1 tag 302", 1},
		{"span rank0 send/rdv: -> 1 tag 303", 1},
		{"span rank0 send/rdv: -> 1 tag 304", 1},
		{"span rank0 coll/allreduce: alg ring", 1},
		{"span rank1 coll/allreduce: alg ring", 1},
	} {
		if got[want.line] != want.n {
			t.Errorf("recorded %d x %q, want %d", got[want.line], want.line, want.n)
		}
	}
	if t.Failed() {
		for line, n := range got {
			t.Logf("%d x %s", n, line)
		}
	}
}
