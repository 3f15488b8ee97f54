package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/sci"
)

// typedTransferError reports whether err is one of the typed errors a
// checked point-to-point operation may surface under a fault plan.
func typedTransferError(err error) bool {
	var (
		lost    sci.ErrSegmentLost
		conn    sci.ErrConnectionLost
		fe      *fault.Error
		cancel  *CancelledError
		revoked *RevokedRankError
		proto   *ProtocolError
	)
	return errors.As(err, &lost) || errors.As(err, &conn) || errors.As(err, &fe) ||
		errors.As(err, &cancel) || errors.As(err, &revoked) || errors.As(err, &proto)
}

// TestRevokedPortUnderReceiveSweep revokes the receiver's port segment
// (segment 0 of node 1: the memory rank 0 deposits into and rank 1's device
// daemon drains) at every instant of an eager stream and of a contiguous
// and a generic rendezvous. Whenever the revocation lands, both sides must
// come back with nil or a typed error: no panic out of the daemon, no hang.
// Regression: the receiver-side reads used the panicking access, so a
// revocation between the sender's deposit and the daemon's drain crashed
// "dev1" with "sci: segment 0 of node 1 was revoked".
func TestRevokedPortUnderReceiveSweep(t *testing.T) {
	const rdvBytes = 256 << 10
	strided := datatype.Vector(2048, 16, 32, datatype.Float64).Commit() // 256 KiB of payload
	scenarios := []struct {
		name   string
		msgs   int
		bytes  int
		recvDT *datatype.Type // nil: contiguous bytes
	}{
		{"eager", 40, 8 << 10, nil},
		{"rendezvous-contig", 1, rdvBytes, nil},
		{"rendezvous-generic", 1, rdvBytes, strided},
	}
	// The three seeds interleave: together they visit the run in 3 µs
	// steps (the window between a deposit and its drain is a few µs wide).
	const step = 3 * time.Microsecond
	seeds := []uint64{1, 7, 13}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			src := fill(sc.bytes)
			// run returns the virtual end time and what each side came
			// back with; a panic or a deadlock anywhere in the run is
			// reported as the run's error.
			run := func(plan *fault.Plan) (end time.Duration, sendErr, recvErr, crashed error) {
				cfg := DefaultConfig(2, 1)
				cfg.SCI.Fault = plan
				defer func() {
					if r := recover(); r != nil {
						crashed = fmt.Errorf("%v", r)
					}
				}()
				end = Run(cfg, func(c *Comm) {
					switch c.Rank() {
					case 0:
						for i := 0; i < sc.msgs && sendErr == nil; i++ {
							sendErr = c.Send(src, sc.bytes, datatype.Byte, 1, i)
						}
					case 1:
						dst := make([]byte, 2*sc.bytes)
						for i := 0; i < sc.msgs && recvErr == nil; i++ {
							if sc.recvDT != nil {
								_, recvErr = c.RecvTimeout(dst, 1, sc.recvDT, 0, i, AutoTimeout)
							} else {
								_, recvErr = c.RecvTimeout(dst, sc.bytes, datatype.Byte, 0, i, AutoTimeout)
							}
						}
					}
				})
				return
			}
			clean, sendErr, recvErr, crashed := run(nil)
			if sendErr != nil || recvErr != nil || crashed != nil {
				t.Fatalf("fault-free run: send %v, recv %v, crash %v", sendErr, recvErr, crashed)
			}
			var instants, failedRecvs int
			for i, seed := range seeds {
				for at := time.Duration(i)*step + 100*time.Nanosecond; at < clean; at += time.Duration(len(seeds)) * step {
					instants++
					_, sendErr, recvErr, crashed := run(fault.New(seed).RevokeSegment(1, 0, at))
					if crashed != nil {
						t.Fatalf("seed %d, revoked at %v: %v", seed, at, crashed)
					}
					for side, err := range map[string]error{"send": sendErr, "recv": recvErr} {
						if err != nil && !typedTransferError(err) {
							t.Errorf("seed %d, revoked at %v: %s returned untyped %T: %v", seed, at, side, err, err)
						}
					}
					var lost sci.ErrSegmentLost
					if errors.As(recvErr, &lost) {
						failedRecvs++
					}
				}
			}
			if failedRecvs == 0 {
				t.Errorf("%d revocation instants never landed under a receive: the sweep tests nothing", instants)
			}
		})
	}
}

// TestPortSegmentIDLayout pins the segment ids a fault plan has to name
// (docs/FAULTS.md): ids are dense per node in export order, a world exports
// its pair ports before anything else — node n's ports in (local rank,
// source) order — and user windows come after. Each row revokes one port by
// number before the first message and checks that exactly the pair the
// layout says it belongs to loses its segment.
func TestPortSegmentIDLayout(t *testing.T) {
	for _, tc := range []struct {
		nodes, ppn int
		node, seg  int // the revoked port ...
		from, to   int // ... is the one rank from deposits into at rank to
		other      int // a rank whose port at rank to is another segment (-1: none)
	}{
		{nodes: 2, ppn: 1, node: 1, seg: 0, from: 0, to: 1, other: -1},
		{nodes: 2, ppn: 1, node: 0, seg: 0, from: 1, to: 0, other: -1},
		// Node 3 holds ranks 6 and 7 with 14 remote sources each: rank 7's
		// ports are 14..27, and source 5 is the sixth of them.
		{nodes: 8, ppn: 2, node: 3, seg: 19, from: 5, to: 7, other: 4},
		{nodes: 8, ppn: 2, node: 0, seg: 0, from: 2, to: 0, other: 3},
		{nodes: 8, ppn: 2, node: 7, seg: 27, from: 13, to: 15, other: 12},
	} {
		cfg := DefaultConfig(tc.nodes, tc.ppn)
		cfg.SCI.Fault = fault.New(1).RevokeSegment(tc.node, tc.seg, 0)
		w := NewWorldOn(NewFabric(cfg), cfg)
		next := make([]int, tc.nodes)
		for _, rk := range w.ranks {
			for src, pt := range rk.ports {
				if src == rk.id {
					continue // a rank's own entry stays zero
				}
				want := -1
				if w.ranks[src].node != rk.node {
					want = next[rk.node]
					next[rk.node]++
				}
				if pt.segID != want {
					t.Errorf("%dx%d: port of rank %d for source %d is segment %d, want %d",
						tc.nodes, tc.ppn, rk.id, src, pt.segID, want)
				}
			}
		}
		buf := make([]byte, 4<<10)
		w.Run(func(c *Comm) {
			c.Proc().Sleep(time.Microsecond) // the revocation has struck
			if id := c.AllocShared(64).seg.ID(); id != next[c.rk.node]+c.rk.id%tc.ppn {
				t.Errorf("%dx%d: first AllocShared of rank %d is segment %d, want %d: windows follow the ports",
					tc.nodes, tc.ppn, c.Rank(), id, next[c.rk.node]+c.rk.id%tc.ppn)
			}
			switch c.Rank() {
			case tc.from:
				err := c.Send(buf, len(buf), datatype.Byte, tc.to, 1000)
				if want := (sci.ErrSegmentLost{Owner: tc.node, Seg: tc.seg}); !errors.Is(err, want) {
					t.Errorf("%dx%d: send %d -> %d returned %v, want %v", tc.nodes, tc.ppn, tc.from, tc.to, err, want)
				}
			case tc.other:
				if err := c.Send(buf, len(buf), datatype.Byte, tc.to, 1000); err != nil {
					t.Errorf("%dx%d: send %d -> %d through a port that was not revoked: %v", tc.nodes, tc.ppn, tc.other, tc.to, err)
				}
			case tc.to:
				if tc.other >= 0 {
					must1(c.Recv(make([]byte, len(buf)), len(buf), datatype.Byte, tc.other, 1000))
				}
			}
		})
	}
}
