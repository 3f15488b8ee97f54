package mpi

import (
	"bytes"
	"encoding/binary"
	"flag"
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/obs/flight"
)

var faultSeed = flag.Uint64("fault.seed", 42, "seed for the fault plan of TestDrainCombinesOnceUnderFaults")

// TestDrainCombinesOnceUnderFaults: a 2 MiB ring Allreduce and a 256 KiB
// Reduce on 4×1, under a fault plan of retryable kinds only — duplicated
// control packets, PIO CRC errors, adapter retransmissions and failed
// transfer checks — return the fault-free bytes, with distinct buffers and
// in place. Every partial combines as it drains, each chunk exactly once: a
// duplicated rendezvous chunk announcement is dropped before it is drained
// (at least one is, per seed), and the bytes combined on the drain are
// (ranks-1) times the payload per call, as without faults. -fault.seed
// picks the plan's draws.
func TestDrainCombinesOnceUnderFaults(t *testing.T) {
	const ranks, root = 4, 2
	const arBytes, redBytes = 2 << 20, 256 << 10
	type result struct {
		out      [4][ranks][]byte // Allreduce, in place; Reduce, in place (root only)
		combined int64
		rdvDups  int
		faults   int64 // transfer errors, adapter retries and check retries
	}
	run := func(faulty bool) result {
		var res result
		cfg := collConfig(ranks, CollRing)
		rec := flight.New(1 << 14)
		cfg.Flight = rec
		if faulty {
			cfg.SCI.Fault = fault.New(*faultSeed).WithDuplicates(0.3).
				WithWriteErrors(0.05).WithRetries(0.05).WithCheckErrors(0.05)
		}
		var w *World
		Run(cfg, func(c *Comm) {
			me := c.Rank()
			if me == 0 {
				w = c.World()
			}
			contribution := func(n int) []byte {
				b := make([]byte, n)
				for i := 0; i < n/8; i++ {
					binary.LittleEndian.PutUint64(b[8*i:], uint64(i*(me+3))^uint64(me)<<40)
				}
				return b
			}
			send := contribution(arBytes)
			recv := make([]byte, arBytes)
			must(c.Allreduce(send, recv, arBytes/8, datatype.Int64, OpSum))
			res.out[0][me] = recv
			must(c.Allreduce(send, send, arBytes/8, datatype.Int64, OpSum))
			res.out[1][me] = send
			send = contribution(redBytes)
			recv = make([]byte, redBytes)
			must(c.Reduce(send, recv, redBytes/8, datatype.Int64, OpMax, root))
			must(c.Reduce(send, send, redBytes/8, datatype.Int64, OpMax, root))
			if me == root {
				res.out[2][me], res.out[3][me] = recv, send
			}
		})
		for r := 0; r < ranks; r++ {
			ic := w.InterconnectStats(r)
			res.faults += ic.TransferErrors + ic.Retries + ic.CheckRetries
			res.combined += w.Stats(r).DrainCombined
			for _, e := range rec.Actor(w.ranks[r].actor).Events() {
				if e.Kind == flight.KPacketDrop && e.A == int64(envRdvData) && e.C == flight.DropDuplicate {
					res.rdvDups++
				}
			}
		}
		return res
	}
	clean, faulty := run(false), run(true)
	for call, name := range []string{"Allreduce", "Allreduce in place", "Reduce", "Reduce in place"} {
		for r := 0; r < ranks; r++ {
			if !bytes.Equal(faulty.out[call][r], clean.out[call][r]) {
				t.Errorf("seed %d: %s on rank %d differs from the fault-free bytes", *faultSeed, name, r)
			}
		}
	}
	if want := int64(ranks-1) * (2*arBytes + 2*redBytes); clean.combined != want || faulty.combined != want {
		t.Errorf("seed %d: %d bytes combined on the drain without faults and %d with, want %d each",
			*faultSeed, clean.combined, faulty.combined, want)
	}
	if faulty.faults == 0 {
		t.Errorf("seed %d: no transfer error, adapter retry or check retry was drawn", *faultSeed)
	}
	if faulty.rdvDups == 0 {
		t.Errorf("seed %d: no duplicated rendezvous chunk announcement was dropped at a 30 %% duplication rate", *faultSeed)
	}
	t.Logf("seed %d: %d duplicated chunk announcements dropped, %d transfer faults drawn", *faultSeed, faulty.rdvDups, faulty.faults)
}
