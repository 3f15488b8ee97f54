package bench

import (
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
)

// Flight-recorder overhead on the latency-critical short-message path: the
// same inter-node 64B ping-pong with the recorder detached and attached.
// The recorder is meant to be always-on, so the On variant must stay within
// 350 ns per round trip of Off (what the original 5% bound was worth on the
// 6.9 µs round trip it was set on; see docs/OBSERVABILITY.md).

func benchPingPongShort(b *testing.B, rec *flight.Recorder) {
	const size = 64
	buf := make([]byte, size)
	cfg := mpi.DefaultConfig(2, 1)
	cfg.Flight = rec
	b.ReportAllocs()
	b.ResetTimer()
	mpi.Run(cfg, func(c *mpi.Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				must(c.Send(buf, size, datatype.Byte, 1, 0))
				must1(c.Recv(buf, size, datatype.Byte, 1, 1))
			} else {
				must1(c.Recv(buf, size, datatype.Byte, 0, 0))
				must(c.Send(buf, size, datatype.Byte, 0, 1))
			}
		}
	})
}

func BenchmarkPingPongShortFlightOff(b *testing.B) {
	benchPingPongShort(b, nil)
}

func BenchmarkPingPongShortFlightOn(b *testing.B) {
	benchPingPongShort(b, flight.New(512))
}
