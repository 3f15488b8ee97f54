package sim_test

// Schedule exploration. Same-instant events run in scheduling order, and
// the virtual-time results are pinned to that order; correctness must not
// be. Each scenario below runs the protocol stack under seeded permutations
// of the tie-break and checks what has to hold under every valid schedule:
// the bytes against the reference linearisation, and the flight analyzer's
// invariants over the recorded run. The scenarios are the ones that show a
// device may serve a control packet from an event callback instead of a
// daemon process: whoever handles it, and in whatever order same-instant
// arrivals are handled, the protocols deliver the same bytes.

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/osc"
	"scimpich/internal/sim"
)

// pattern is the reference content of message or window region id.
func pattern(id, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(id*37 + i*11 + 5)
	}
	return b
}

func TestScheduleExploration(t *testing.T) {
	scenarios := []struct {
		name  string
		nodes int
		coll  mpi.CollAlg // the collective family forced (CollAuto: none)
		main  func(t *testing.T, c *mpi.Comm)
	}{
		{"short-pingpong", 2, mpi.CollAuto, func(t *testing.T, c *mpi.Comm) {
			buf := make([]byte, 64)
			for i := 0; i < 40; i++ {
				if c.Rank() == 0 {
					must(c.Send(pattern(i, 64), 64, datatype.Byte, 1, 0))
					must1(c.Recv(buf, 64, datatype.Byte, 1, 0))
					if !bytes.Equal(buf, pattern(i, 64)) {
						t.Errorf("round trip %d: echo differs from the payload sent", i)
					}
				} else {
					must1(c.Recv(buf, 64, datatype.Byte, 0, 0))
					must(c.Send(buf, 64, datatype.Byte, 0, 0))
				}
			}
		}},
		{"crosstalk-rendezvous", 2, mpi.CollAuto, func(t *testing.T, c *mpi.Comm) {
			// Simultaneous opposing rendezvous on one pair: requests, grants,
			// chunks and acks of both directions interleave at both devices.
			const size = 300 << 10
			peer := 1 - c.Rank()
			for i := 0; i < 3; i++ {
				in := make([]byte, size)
				r := c.Irecv(in, size, datatype.Byte, peer, i)
				must(c.Send(pattern(10*c.Rank()+i, size), size, datatype.Byte, peer, i))
				must1(r.Wait())
				if !bytes.Equal(in, pattern(10*peer+i, size)) {
					t.Errorf("rank %d exchange %d: rendezvous data corrupted", c.Rank(), i)
				}
			}
		}},
		{"eager-credit-exhaustion", 3, mpi.CollAuto, func(t *testing.T, c *mpi.Comm) {
			// Two senders, each with three times more eager sends to rank 2
			// than it has slots there, before the first receive is posted:
			// they block on credits, which only come back as acks once the
			// receiver drains the slots. Both act at the same instants, so
			// their packets tie at the receiving device.
			const size, n = 4 << 10, 24
			if c.Rank() < 2 {
				for i := 0; i < n; i++ {
					must(c.Send(pattern(100*c.Rank()+i, size), size, datatype.Byte, 2, 7))
				}
				return
			}
			c.Proc().Sleep(time.Millisecond)
			buf := make([]byte, size)
			for i := 0; i < n; i++ {
				for src := 0; src < 2; src++ {
					must1(c.Recv(buf, size, datatype.Byte, src, 7))
					if !bytes.Equal(buf, pattern(100*src+i, size)) {
						t.Errorf("eager message %d from %d arrived out of order or corrupted", i, src)
					}
				}
			}
		}},
		{"put-fence-epoch", 2, mpi.CollAuto, func(t *testing.T, c *mpi.Comm) {
			// One epoch of puts into the partner's private window (emulated
			// access through the remote handler) and one into its shared
			// window (direct access), both fenced.
			const region, regions = 512, 8
			peer := 1 - c.Rank()
			s := osc.NewSystem(c)
			for _, shared := range []bool{false, true} {
				var w *osc.Win
				if shared {
					w = s.CreateShared(c.AllocShared(region*regions), osc.DefaultConfig())
				} else {
					w = s.CreatePrivate(make([]byte, region*regions), osc.DefaultConfig())
				}
				must(w.Fence())
				for i := 0; i < regions; i++ {
					must(w.Put(pattern(100*c.Rank()+i, region), region, datatype.Byte, peer, int64(i*region)))
				}
				must(w.Fence())
				for i := 0; i < regions; i++ {
					if !bytes.Equal(w.LocalBytes()[i*region:(i+1)*region], pattern(100*peer+i, region)) {
						t.Errorf("rank %d, shared=%v: region %d differs from what the partner put", c.Rank(), shared, i)
					}
				}
			}
		}},
		{"folding-exchange-inplace", 2, mpi.CollRecDbl, func(t *testing.T, c *mpi.Comm) {
			// Recursive doubling on two ranks is one exchange: each member
			// sends its vector while its partner's partial folds into the
			// same bytes, a short packet, an eager slot and rendezvous
			// chunks in turn. Rank 1 enters each call late, so rank 0's
			// partial lands before rank 1's own send has read the bytes; a
			// fold that ran then would send the sum instead of the
			// contribution.
			for _, n := range []int{64, 4 << 10, 300 << 10} {
				vec := make([]byte, n)
				for i := 0; i < n/8; i++ {
					binary.LittleEndian.PutUint64(vec[8*i:], uint64(i*(c.Rank()+3)+c.Rank()<<20))
				}
				c.Proc().Sleep(time.Duration(c.Rank()) * 50 * time.Microsecond)
				must(c.Allreduce(vec, vec, n/8, datatype.Int64, mpi.OpSum))
				for i := 0; i < n/8; i++ {
					if got, want := binary.LittleEndian.Uint64(vec[8*i:]), uint64(i*7+1<<20); got != want {
						t.Errorf("rank %d, %d B: element %d = %d, want the sum %d", c.Rank(), n, i, got, want)
						break
					}
				}
			}
		}},
	}
	const seeds = 16
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ends := make([]time.Duration, 0, seeds+1)
			var canonical bytes.Buffer
			reordered := 0
			// Over every seed's recording, in seed order: equal digests on two
			// commits mean the same schedule under every seed.
			schedules := fnv.New64a()
			for seed := uint64(0); seed <= seeds; seed++ { // seed 0 is the canonical order
				cfg := mpi.DefaultConfig(sc.nodes, 1)
				cfg.Protocol.Coll = sc.coll
				cfg.Flight = flight.New(1 << 14)
				e := sim.NewEngine()
				e.PermuteTies(seed)
				end := mpi.NewWorldOn(sim.NewSeqFabric(e, 1, time.Microsecond), cfg).Run(func(c *mpi.Comm) { sc.main(t, c) })
				ends = append(ends, end)
				dump := cfg.Flight.Snapshot(sc.name)
				for _, an := range flight.Analyze(dump).Anomalies {
					t.Errorf("seed %d: %s: %s", seed, an.Check, an.Summary)
				}
				var recorded bytes.Buffer
				if err := dump.WriteJSON(&recorded); err != nil {
					t.Fatal(err)
				}
				schedules.Write(recorded.Bytes())
				if seed == 0 {
					canonical = recorded
				} else if !bytes.Equal(recorded.Bytes(), canonical.Bytes()) {
					reordered++
				}
			}
			t.Logf("%d of %d seeds recorded a schedule other than the canonical one (digest of all %d recordings %016x); virtual end per seed (0 = canonical): %v",
				reordered, seeds, seeds+1, schedules.Sum64(), ends)
		})
	}
}

// must fails the calling rank on a fault the test does not expect.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// must1 is must for a call that also returns a value.
func must1[T any](v T, err error) T {
	must(err)
	return v
}
