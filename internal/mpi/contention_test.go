package mpi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
)

// contendedPair drives one rank pair into both kinds of wait its sender
// record holds: more eager Isends in flight than the pair has eager slots,
// so the later ones block on the credits until the receiver drains, and two
// concurrent 256 KiB Isends, so one blocks on the rendezvous lock. The
// receiver starts late and takes the messages in the order they were
// posted.
func contendedPair(t *testing.T, cfg Config) (end time.Duration, spans int, dump []byte) {
	const eager, eagerBytes, rdvBytes = eagerSlots + 4, 4 << 10, 256 << 10
	rec := flight.New(0)
	tr := obs.NewTrace(0)
	cfg.Flight, cfg.Tracer = rec, tr
	end = Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			reqs := make([]*Request, 0, eager+2)
			for i := 0; i < eager; i++ {
				buf := bytes.Repeat([]byte{byte(i + 1)}, eagerBytes)
				reqs = append(reqs, c.Isend(buf, len(buf), datatype.Byte, 1, 1000+i))
			}
			for i := 0; i < 2; i++ {
				buf := bytes.Repeat([]byte{byte(100 + i)}, rdvBytes)
				reqs = append(reqs, c.Isend(buf, len(buf), datatype.Byte, 1, 2000+i))
			}
			for _, r := range reqs {
				must1(r.Wait())
			}
			return
		}
		c.Proc().Sleep(50 * time.Microsecond)
		for i := 0; i < eager; i++ {
			got := make([]byte, eagerBytes)
			must1(c.Recv(got, len(got), datatype.Byte, 0, 1000+i))
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, eagerBytes)) {
				t.Errorf("eager message %d delivered the wrong bytes", i)
			}
		}
		for i := 0; i < 2; i++ {
			got := make([]byte, rdvBytes)
			must1(c.Recv(got, len(got), datatype.Byte, 0, 2000+i))
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(100 + i)}, rdvBytes)) {
				t.Errorf("rendezvous message %d delivered the wrong bytes", i)
			}
		}
	})
	var buf bytes.Buffer
	if err := rec.Snapshot("").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return end, len(tr.Spans()), buf.Bytes()
}

// TestContendedPairTimeline pins the virtual end, the span count and the
// flight dump of a contended pair, on SCI and inside a node, to what they
// were before the sender record's credits and locks moved inline: the wait
// lists changed storage, not order, so no event may move.
func TestContendedPairTimeline(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        Config
		end        time.Duration
		spans      int
		dumpSHA256 string
	}{
		{"2x1", DefaultConfig(2, 1), 2661444, 34, "94aedad175f3720a03e21a631d699e0e49adc8ecc538dcc146b837bda077cc1b"},
		{"1x2", DefaultConfig(1, 2), 1906170, 34, "a294aee17bef3de542cd027e461147d189211d3f60ae64b2994137c5e3acf6d1"},
	} {
		end, spans, dump := contendedPair(t, tc.cfg)
		sum := sha256.Sum256(dump)
		digest := hex.EncodeToString(sum[:])
		t.Logf("%s: ends at %v (%d ns), %d spans, %d-byte flight dump %s", tc.name, end, int64(end), spans, len(dump), digest)
		if end != tc.end || spans != tc.spans || digest != tc.dumpSHA256 {
			t.Errorf("%s: ends at %v with %d spans and dump %s, want %v, %d and %s",
				tc.name, end, spans, digest, tc.end, tc.spans, tc.dumpSHA256)
		}
	}
}
