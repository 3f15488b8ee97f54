package bench

import (
	"errors"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

// Classic ping-pong latency/bandwidth sweep (the staple of every MPI
// evaluation of the era): half round-trip time versus message size, for
// inter-node (SCI) and intra-node (shared memory) pairs. The protocol knees
// — short to eager to rendezvous — are visible as slope changes.

// PingPongResult is one message-size sample.
type PingPongResult struct {
	Size int64 `json:"size"`
	// Half round-trip latency (µs) and resulting bandwidth (MiB/s).
	InterLatUS float64 `json:"sci_us"`
	InterBW    float64 `json:"sci_mibs"`
	IntraLatUS float64 `json:"shm_us"`
	IntraBW    float64 `json:"shm_mibs"`
}

// RunPingPong sweeps the given message sizes.
func RunPingPong(sizes []int64) []PingPongResult {
	out := make([]PingPongResult, len(sizes))
	for i, size := range sizes {
		out[i].Size = size
		out[i].InterLatUS, out[i].InterBW = pingPong(2, 1, size)
		out[i].IntraLatUS, out[i].IntraBW = pingPong(1, 2, size)
	}
	return out
}

func pingPong(nodes, procs int, size int64) (latUS, bw float64) {
	const rounds = 16
	half := pingPongElapsed(nodes, procs, size, rounds) / (2 * rounds)
	if half <= 0 {
		return 0, 0
	}
	return half.Seconds() * 1e6, float64(size) / half.Seconds() / MiB
}

// pingPongElapsed is the two-sided echo kernel: after a barrier the two
// ranks of a cluster of the given shape bounce a size-byte message rounds
// times; it returns rank 0's elapsed virtual time.
func pingPongElapsed(nodes, procs int, size int64, rounds int) time.Duration {
	var elapsed time.Duration
	mpi.Run(instrument(mpi.DefaultConfig(nodes, procs)), healthy(func(c *mpi.Comm) (err error) {
		buf := make([]byte, size)
		err = errors.Join(err, c.Barrier())
		start := c.WtimeDuration()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				err = errors.Join(err, c.Send(buf, int(size), datatype.Byte, 1, 0))
				err = errors.Join(err, errOf(c.Recv(buf, int(size), datatype.Byte, 1, 1)))
			} else {
				err = errors.Join(err, errOf(c.Recv(buf, int(size), datatype.Byte, 0, 0)))
				err = errors.Join(err, c.Send(buf, int(size), datatype.Byte, 0, 1))
			}
		}
		if c.Rank() == 0 {
			elapsed = c.WtimeDuration() - start
		}
		return err
	}))
	return elapsed
}

// PingPongFigure formats the sweep.
func PingPongFigure(results []PingPongResult) *Figure {
	return curves("Ping-pong: half round trip latency (µs) and bandwidth (MiB/s)", "size", "µs / MiB/s",
		[]string{"SCI-lat-µs", "SCI-MiB/s", "shm-lat-µs", "shm-MiB/s"}, results,
		func(r PingPongResult) (int64, []float64) {
			return r.Size, []float64{r.InterLatUS, r.InterBW, r.IntraLatUS, r.IntraBW}
		})
}
