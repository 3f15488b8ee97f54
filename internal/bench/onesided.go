package bench

import (
	"errors"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

// One-sided versus two-sided comparison — the paper's concluding question:
// "Only comparing the performance and algorithmic complexity of
// applications solving a given problem with one- or two-sided
// communication will allow to decide for one or the other technique."
//
// Two scenarios:
//
//  1. PingPong: a synchronized put+fence pair against a two-sided
//     send/recv echo. Per the paper's observation, one-sided is NOT faster
//     here — the synchronization costs as much as the matched receive.
//  2. BusyTarget: the origin reads many small pieces of the target's data
//     while the target computes. With one-sided communication the target
//     "does not take any action"; with two-sided messaging it must poll
//     between compute chunks, so every request waits for the next poll.
//     This is where one-sided wins — by removing the target's
//     participation, not by raw latency.

// OneVsTwoSidedResult summarizes the comparison.
type OneVsTwoSidedResult struct {
	// PingPong: per-round-trip latency.
	TwoSidedPingPong time.Duration `json:"two_sided_pingpong_ns"`
	OneSidedPingPong time.Duration `json:"one_sided_pingpong_ns"`
	// BusyTarget: total completion time of the access phase.
	TwoSidedBusy time.Duration `json:"two_sided_busy_ns"`
	OneSidedBusy time.Duration `json:"one_sided_busy_ns"`
}

// OneVsTwoSidedTable formats the comparison; a side wins a scenario when it
// is more than 5 % faster.
func OneVsTwoSidedTable(r OneVsTwoSidedResult) *Table {
	winner := func(two, one time.Duration) string {
		switch {
		case float64(one) < float64(two)*0.95:
			return "one-sided"
		case float64(two) < float64(one)*0.95:
			return "two-sided"
		default:
			return "tie"
		}
	}
	t := &Table{
		Title:  "One-sided vs two-sided communication (paper §6)",
		Header: "scenario\ttwo-sided\tone-sided\twinner",
	}
	t.Add("synchronized ping-pong (per round)\t%v\t%v\t%s",
		r.TwoSidedPingPong, r.OneSidedPingPong, winner(r.TwoSidedPingPong, r.OneSidedPingPong))
	t.Add("%d x %dB access to a busy target\t%v\t%v\t%s", busyAccesses, busyAccessBytes,
		r.TwoSidedBusy, r.OneSidedBusy, winner(r.TwoSidedBusy, r.OneSidedBusy))
	return t
}

// RunOneVsTwoSided executes both scenarios on a 2-node cluster.
func RunOneVsTwoSided() OneVsTwoSidedResult {
	var r OneVsTwoSidedResult
	r.TwoSidedPingPong = twoSidedPingPong()
	r.OneSidedPingPong = oneSidedPingPong()
	r.TwoSidedBusy = twoSidedBusyTarget()
	r.OneSidedBusy = oneSidedBusyTarget()
	return r
}

const ppRounds = 32

func twoSidedPingPong() time.Duration {
	return pingPongElapsed(2, 1, 8, ppRounds) / ppRounds
}

func oneSidedPingPong() time.Duration {
	var d time.Duration
	mpi.Run(instrument(mpi.DefaultConfig(2, 1)), healthy(func(c *mpi.Comm) (err error) {
		s := osc.NewSystem(c)
		w := s.CreateShared(c.AllocShared(16), osc.DefaultConfig())
		buf := make([]byte, 8)
		err = errors.Join(err, w.Fence())
		start := c.WtimeDuration()
		for i := 0; i < ppRounds; i++ {
			if c.Rank() == 0 {
				err = errors.Join(err, w.Put(buf, 8, datatype.Byte, 1, 0))
			}
			err = errors.Join(err, w.Fence())
			if c.Rank() == 1 {
				err = errors.Join(err, w.Put(buf, 8, datatype.Byte, 0, 8))
			}
			err = errors.Join(err, w.Fence())
		}
		if c.Rank() == 0 {
			d = (c.WtimeDuration() - start) / ppRounds
		}
		return err
	}))
	return d
}

const (
	busyAccesses    = 64
	busyAccessBytes = 64
	computeChunk    = 50 * time.Microsecond
	computeChunks   = 40
)

// twoSidedBusyTarget: rank 1 computes in chunks and polls for requests
// between chunks (the explicit-polling pattern the paper says one-sided
// communication exists to avoid). Rank 0 issues request-reply accesses.
func twoSidedBusyTarget() time.Duration {
	var d time.Duration
	mpi.Run(instrument(mpi.DefaultConfig(2, 1)), healthy(func(c *mpi.Comm) (err error) {
		switch c.Rank() {
		case 0:
			err = errors.Join(err, c.Barrier())
			start := c.WtimeDuration()
			req := make([]byte, 8)
			reply := make([]byte, busyAccessBytes)
			for i := 0; i < busyAccesses; i++ {
				err = errors.Join(err, c.Send(req, 8, datatype.Byte, 1, 100))
				err = errors.Join(err, errOf(c.Recv(reply, busyAccessBytes, datatype.Byte, 1, 101)))
			}
			err = errors.Join(err, c.Send(nil, 0, datatype.Byte, 1, 102)) // done
			d = c.WtimeDuration() - start
		case 1:
			data := make([]byte, busyAccessBytes)
			err = errors.Join(err, c.Barrier())
			done := false
			for chunk := 0; chunk < computeChunks && !done; chunk++ {
				c.Proc().Sleep(computeChunk) // compute
				// Poll: service everything that queued up.
				for {
					_, ok, perr := c.Iprobe(0, 102)
					if err = errors.Join(err, perr); ok {
						err = errors.Join(err, errOf(c.Recv(nil, 0, datatype.Byte, 0, 102)))
						done = true
						break
					}
					st, ok, perr := c.Iprobe(0, 100)
					if err = errors.Join(err, perr); !ok {
						break
					}
					buf := make([]byte, st.Bytes)
					err = errors.Join(err, errOf(c.Recv(buf, int(st.Bytes), datatype.Byte, 0, 100)))
					err = errors.Join(err, c.Send(data, busyAccessBytes, datatype.Byte, 0, 101))
				}
			}
			// Drain any remainder so the origin completes.
			for !done {
				st, perr := c.Probe(0, mpi.AnyTag)
				if perr != nil {
					err = errors.Join(err, perr)
					break
				}
				if st.Tag == 102 {
					err = errors.Join(err, errOf(c.Recv(nil, 0, datatype.Byte, 0, 102)))
					break
				}
				buf := make([]byte, st.Bytes)
				err = errors.Join(err, errOf(c.Recv(buf, int(st.Bytes), datatype.Byte, 0, 100)))
				err = errors.Join(err, c.Send(data, busyAccessBytes, datatype.Byte, 0, 101))
			}
		}
		return err
	}))
	return d
}

// oneSidedBusyTarget: the same accesses as direct gets from the target's
// shared window while the target computes, uninvolved.
func oneSidedBusyTarget() time.Duration {
	var d time.Duration
	mpi.Run(instrument(mpi.DefaultConfig(2, 1)), healthy(func(c *mpi.Comm) (err error) {
		s := osc.NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), osc.DefaultConfig())
		err = errors.Join(err, w.Fence())
		switch c.Rank() {
		case 0:
			start := c.WtimeDuration()
			buf := make([]byte, busyAccessBytes)
			for i := 0; i < busyAccesses; i++ {
				err = errors.Join(err, w.Get(buf, busyAccessBytes, datatype.Byte, 1, 0))
			}
			d = c.WtimeDuration() - start
		case 1:
			// The target only computes; it takes no communication action.
			for chunk := 0; chunk < computeChunks; chunk++ {
				c.Proc().Sleep(computeChunk)
			}
		}
		err = errors.Join(err, w.Fence())
		return err
	}))
	return d
}
