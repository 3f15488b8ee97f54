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
