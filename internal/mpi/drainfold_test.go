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

// TestDrainCombinesOnceUnderFaults: reductions on 4×1 whose partials fold
// in where they land — rendezvous chunks (a 2 MiB ring Allreduce and a
// 256 KiB Reduce; a 1 MiB recursive-doubling Allreduce), short packets (a
// 128 B ring Allreduce and Reduce), eager slots (4 KiB) and the one-sided
// ring's window (a 256 KiB Allreduce) —
// under a fault plan of retryable kinds only: duplicated control packets,
// PIO CRC errors, adapter retransmissions and failed transfer checks. Each
// returns the fault-free bytes, with distinct buffers and in place, and
// folds every partial exactly once: a duplicated envelope of the kind that
// carries the row's partials (a chunk announcement, a short or an eager
// message; the one-sided ring's notifies and acks are short) is dropped
// before any fold (at least one is, per row and seed), and the bytes folded
// are (ranks-1) times the payload per call — for recursive doubling, the
// payload once per receive of recDblPeer's schedule — as without faults.
// Every row
// whose partials cross the SCI data path draws at least one transfer
// fault; a short partial rides inside its control packet, which only the
// duplication touches, so the short row is exempt. -fault.seed picks the
// plan's draws.
func TestDrainCombinesOnceUnderFaults(t *testing.T) {
	const ranks, root = 4, 2
	type result struct {
		out      [4][ranks][]byte // Allreduce, in place; Reduce, in place (root only)
		combined int64
		dups     int   // dropped duplicates of the row's kind
		faults   int64 // transfer errors, adapter retries and check retries
	}
	run := func(alg CollAlg, arBytes, redBytes int, dup envKind, faulty bool) result {
		var res result
		cfg := collConfig(ranks, alg)
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
			if redBytes == 0 {
				return
			}
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
				if e.Kind == flight.KPacketDrop && e.A == int64(dup) && e.C == flight.DropDuplicate {
					res.dups++
				}
			}
		}
		return res
	}
	for _, row := range []struct {
		name              string
		alg               CollAlg
		arBytes, redBytes int
		dup               envKind
		inPacket          bool // the partials ride in control packets: no transfer fault to draw
	}{
		{"rendezvous", CollRing, 2 << 20, 256 << 10, envRdvData, false},
		{"short", CollRing, 128, 128, envShort, true},
		{"eager", CollRing, 4 << 10, 4 << 10, envEager, false},
		{"one-sided", CollOneSided, 256 << 10, 0, envShort, false},
		{"recursive doubling", CollRecDbl, 1 << 20, 0, envRdvData, false},
	} {
		clean, faulty := run(row.alg, row.arBytes, row.redBytes, row.dup, false), run(row.alg, row.arBytes, row.redBytes, row.dup, true)
		for call, name := range []string{"Allreduce", "Allreduce in place", "Reduce", "Reduce in place"} {
			for r := 0; r < ranks; r++ {
				if !bytes.Equal(faulty.out[call][r], clean.out[call][r]) {
					t.Errorf("seed %d, %s: %s on rank %d differs from the fault-free bytes", *faultSeed, row.name, name, r)
				}
			}
		}
		arFolds := ranks - 1 // payloads one Allreduce folds
		if row.alg == CollRecDbl {
			arFolds = 0
			for r := 0; r < ranks; r++ {
				for s := 0; s < recDblSteps(ranks)-1; s++ {
					if _, _, recvs := recDblPeer(r, s, ranks); recvs {
						arFolds++
					}
				}
			}
		}
		if want := int64(arFolds*2*row.arBytes + (ranks-1)*2*row.redBytes); clean.combined != want || faulty.combined != want {
			t.Errorf("seed %d, %s: %d bytes folded where they landed without faults and %d with, want %d each",
				*faultSeed, row.name, clean.combined, faulty.combined, want)
		}
		if faulty.dups == 0 {
			t.Errorf("seed %d, %s: no duplicated %v envelope was dropped at a 30 %% duplication rate", *faultSeed, row.name, row.dup)
		}
		if faulty.faults == 0 && !row.inPacket {
			t.Errorf("seed %d, %s: no transfer error, adapter retry or check retry was drawn", *faultSeed, row.name)
		}
		t.Logf("seed %d, %s: %d duplicated %v envelopes dropped, %d transfer faults drawn", *faultSeed, row.name, faulty.dups, row.dup, faulty.faults)
	}
}
