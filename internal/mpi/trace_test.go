package mpi

import (
	"strings"
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/obs"
)

func TestTracerRecordsProtocolTimeline(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	tr := obs.NewTrace(0)
	cfg.Tracer = tr
	src := fill(256 << 10)
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(src, len(src), datatype.Byte, 1, 3)
		case 1:
			dst := make([]byte, len(src))
			c.Recv(dst, len(dst), datatype.Byte, 0, 3)
		}
	})
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	filter := func(category string) []obs.Event {
		var out []obs.Event
		for _, e := range evs {
			if e.Category == category {
				out = append(out, e)
			}
		}
		return out
	}
	sends := filter("send")
	if len(sends) == 0 || !strings.Contains(sends[0].Detail, "262144 bytes") {
		t.Errorf("send events = %+v", sends)
	}
	recvs := filter("recv")
	if len(recvs) == 0 || !strings.Contains(recvs[0].Detail, "rdv-req") {
		t.Errorf("recv events = %+v (want rendezvous match)", recvs)
	}
	// A 256 kiB transfer in 64 kiB chunks: four chunk events.
	chunks := filter("rdv")
	if len(chunks) != 4 {
		t.Errorf("chunk events = %d, want 4", len(chunks))
	}
	// Events must be time-ordered.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace not time-ordered")
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
			c.Send([]byte{1}, 1, datatype.Byte, 1, 0)
		} else {
			c.Recv(make([]byte, 1), 1, datatype.Byte, 0, 0)
		}
	})
}

// TestGuardedTraceSites: the trace calls that format arguments are guarded
// at their call sites by the nil tracer or span they hold (the arguments
// would be boxed before a callee could decline them). With a tracer attached
// each guarded site must still record exactly the Detail the unguarded call
// produced: a short, an eager and three rendezvous messages (contiguous, ff
// on both sides, generic) and an allreduce, at tags >= 256.
func TestGuardedTraceSites(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Protocol.Coll = CollRing
	tr := obs.NewTrace(0)
	cfg.Tracer = tr
	vecA := datatype.Vector(256, 1024, 2048, datatype.Byte).Commit() // 256 KiB in 1 KiB blocks
	vecB := datatype.Vector(512, 512, 1024, datatype.Byte).Commit()  // the same bytes, flattened differently
	Run(cfg, func(c *Comm) {
		plain := make([]byte, 256<<10)
		strided := make([]byte, max(vecA.Extent(), vecB.Extent()))
		ints := make([]byte, 4<<10)
		switch c.Rank() {
		case 0:
			c.Send(plain, 64, datatype.Byte, 1, 300)
			c.Send(plain, 4<<10, datatype.Byte, 1, 301)
			c.Send(plain, 256<<10, datatype.Byte, 1, 302)
			c.Send(strided, 1, vecA, 1, 303)
			c.Send(strided, 1, vecA, 1, 304)
		case 1:
			c.Recv(plain, 64, datatype.Byte, 0, 300)
			c.Recv(plain, 4<<10, datatype.Byte, 0, 301)
			c.Recv(plain, 256<<10, datatype.Byte, 0, 302)
			c.Recv(strided, 1, vecA, 0, 303)
			c.Recv(strided, 1, vecB, 0, 304)
		}
		c.Allreduce(ints, ints, len(ints)/8, datatype.Int64, OpSum)
	})
	got := map[string]int{}
	for _, e := range tr.Events() {
		got["event "+e.Actor+" "+e.Category+": "+e.Detail]++
	}
	for _, s := range tr.Spans() {
		if s.Detail != "" {
			got["span "+s.Actor+" "+s.Category+"/"+s.Name+": "+s.Detail]++
		}
	}
	for _, want := range []struct {
		line string
		n    int
	}{
		{"event rank0 send: -> 1 tag 300: 64 bytes", 1},
		{"event rank0 send: -> 1 tag 301: 4096 bytes", 1},
		{"event rank0 send: -> 1 tag 302: 262144 bytes", 1},
		{"event rank0 send: -> 1 tag 303: 262144 bytes", 1},
		{"event dev1 recv: <- 0 tag 300: 64 bytes via short", 1},
		{"event dev1 recv: <- 0 tag 301: 4096 bytes via eager", 1},
		{"event dev1 recv: <- 0 tag 302: 262144 bytes via rdv-req", 1},
		{"event dev1 recv: <- 0 tag 304: 262144 bytes via rdv-req", 1},
		{"event dev1 rdv: chunk 0 (65536 bytes) from 0, mode 0", 1},
		{"event dev1 rdv: chunk 3 (65536 bytes) from 0, mode 0", 1},
		{"event dev1 rdv: chunk 0 (65536 bytes) from 0, mode 1", 1},
		{"event dev1 rdv: chunk 3 (65536 bytes) from 0, mode 1", 1},
		{"event dev1 rdv: chunk 0 (65536 bytes) from 0, mode 2", 1},
		{"event dev1 rdv: chunk 3 (65536 bytes) from 0, mode 2", 1},
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
