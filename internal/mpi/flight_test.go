package mpi

import (
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/obs/flight"
)

// TestFlightRecordsSendRecv checks the point-to-point wiring: a send and
// its matching receive leave typed events on the respective rank rings,
// with the documented match-key payloads, and the topology meta ring names
// every rank's node.
func TestFlightRecordsSendRecv(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	rec := flight.New(64)
	cfg.Flight = rec
	const tag, bytes = 7, 128
	Run(cfg, func(c *Comm) {
		buf := make([]byte, bytes)
		if c.Rank() == 0 {
			must(c.Send(buf, bytes, datatype.Byte, 1, tag))
		} else {
			must1(c.Recv(buf, bytes, datatype.Byte, 0, tag))
		}
	})

	find := func(actor string, k flight.Kind) *flight.Event {
		for _, e := range rec.Actor(actor).Events() {
			if e.Kind == k {
				return &e
			}
		}
		return nil
	}
	send := find("rank0", flight.KSendPost)
	if send == nil {
		t.Fatal("rank0 recorded no KSendPost")
	}
	if send.A != 1 || send.B != tag || send.C != bytes {
		t.Errorf("KSendPost payload = %+v, want dst 1, tag %d, %dB", send, tag, bytes)
	}
	if post := find("rank1", flight.KRecvPost); post == nil {
		t.Error("rank1 recorded no KRecvPost")
	}
	match := find("rank1", flight.KRecvMatch)
	if match == nil {
		t.Fatal("rank1 recorded no KRecvMatch")
	}
	if match.A != 0 || match.B != tag || match.C != bytes {
		t.Errorf("KRecvMatch payload = %+v, want src 0, tag %d, %dB", match, tag, bytes)
	}
	if send.Seq >= match.Seq {
		t.Errorf("send seq %d not before match seq %d", send.Seq, match.Seq)
	}

	topo := rec.Actor("topology").Events()
	if len(topo) != 2 {
		t.Fatalf("topology ring has %d events, want one KRankNode per rank", len(topo))
	}
	for r, e := range topo {
		if e.Kind != flight.KRankNode || e.A != int64(r) {
			t.Errorf("topology[%d] = %+v, want KRankNode for rank %d", r, e, r)
		}
	}
	if rec.Dumped() {
		t.Errorf("healthy run dumped: %s", rec.Reason())
	}
}
