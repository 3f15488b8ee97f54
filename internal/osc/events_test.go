package osc

import (
	"strings"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// TestFaultPathsLeaveFlightEvents drives each protocol and fault path that
// used to report only as a formatted trace instant — an injected or
// surfaced fault, a stale or unknown request, a revoked port, a degraded or
// abandoned window — and checks that its typed flight event is in the dump,
// rendered as cmd/postmortem and the Chrome export print it. Paths that end
// in a typed error also show the KError of the checked call. (The stray CTS,
// reachable only by injecting one, is mpi.TestRdvScratchRecycling's.)
func TestFaultPathsLeaveFlightEvents(t *testing.T) {
	// sciRun runs body on node 0 of a two-node interconnect with node 1's
	// 4 KiB segment imported.
	sciRun := func(rec *flight.Recorder, plan *fault.Plan, body func(p *sim.Proc, ic *sci.Interconnect, m *sci.Mapping)) {
		e := sim.NewEngine()
		cfg := sci.DefaultConfig(2)
		cfg.Flight, cfg.Fault = rec, plan
		ic := sci.New(e, cfg)
		seg := ic.Node(1).Export(4096)
		m := ic.Node(0).MustImport(1, seg.ID())
		e.Go("p", func(p *sim.Proc) { body(p, ic, m) })
		e.Run()
	}
	// mpiRun runs main on a two-node world (three for the PSCW rows).
	mpiRun := func(rec *flight.Recorder, nodes int, plan *fault.Plan, main func(c *mpi.Comm)) {
		cfg := mpi.DefaultConfig(nodes, 1)
		cfg.Flight, cfg.SCI.Fault = rec, plan
		cfg.Protocol.RendezvousTimeout = 200 * time.Microsecond
		mpi.Run(cfg, main)
	}
	buf := make([]byte, 1<<20)

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, rec *flight.Recorder)
		want []string // "actor event text", each at least once
	}{
		{"import from a dead node", func(t *testing.T, rec *flight.Recorder) {
			sciRun(rec, nil, func(p *sim.Proc, ic *sci.Interconnect, m *sci.Mapping) {
				ic.FailNode(1)
				if _, err := ic.Node(0).Import(1, m.Segment().ID()); err == nil {
					t.Error("import from a dead node succeeded")
				}
			})
		}, []string{"node0 fault: node-unreachable from 0 to 1"}},

		{"transfer toward a dead node", func(t *testing.T, rec *flight.Recorder) {
			sciRun(rec, nil, func(p *sim.Proc, ic *sci.Interconnect, m *sci.Mapping) {
				ic.FailNode(1)
				if m.WriteStream(p, 0, buf[:4096], 0) == nil {
					t.Error("write toward a dead node succeeded")
				}
			})
		}, []string{"node0 fault: node-unreachable from 0 to 1 (retry 3)"}},

		{"link disturbed past the retries", func(t *testing.T, rec *flight.Recorder) {
			plan := fault.New(1).DisturbLink(0, 1, 0, time.Second)
			sciRun(rec, plan, func(p *sim.Proc, ic *sci.Interconnect, m *sci.Mapping) {
				if m.WriteStream(p, 0, buf[:4096], 0) == nil {
					t.Error("write across a disturbed link succeeded")
				}
			})
		}, []string{"node0 fault: link-disturbed from 0 to 1 (retry 3)"}},

		{"transfer check given up", func(t *testing.T, rec *flight.Recorder) {
			plan := fault.New(2).WithCheckErrors(0.95)
			sciRun(rec, plan, func(p *sim.Proc, ic *sci.Interconnect, m *sci.Mapping) {
				if m.Sync(p) == nil {
					t.Error("checked sync survived persistent check errors")
				}
			})
		}, []string{"node0 connection node0 -> node1 lost after 5 failed checks"}},

		{"rendezvous cancelled before the receive", func(t *testing.T, rec *flight.Recorder) {
			// The sender's watchdog gives up before the receiver posts: the
			// cancel finds no transfer at the receiver.
			mpiRun(rec, 2, nil, func(c *mpi.Comm) {
				if c.Rank() == 0 {
					if c.Send(buf, 256<<10, datatype.Byte, 1, 300) == nil {
						t.Error("send outlived its watchdog")
					}
					return
				}
				c.Proc().Sleep(time.Millisecond)
				if _, err := c.RecvTimeout(buf, 256<<10, datatype.Byte, 0, 300, time.Millisecond); err == nil {
					t.Error("receive of a cancelled rendezvous succeeded")
				}
			})
		}, []string{"rank1 packet to/from rank0 dropped (stray)", "rank0 ERROR: send failed (rank1)"}},

		{"duplicated rendezvous chunks", func(t *testing.T, rec *flight.Recorder) {
			mpiRun(rec, 2, fault.New(3).WithDuplicates(0.5), func(c *mpi.Comm) {
				if c.Rank() == 0 {
					must(c.Send(buf, 1<<20, datatype.Byte, 1, 300))
				} else {
					must1(c.Recv(buf, 1<<20, datatype.Byte, 0, 300))
				}
			})
		}, []string{"rank1 packet to/from rank0 dropped (duplicate)"}},

		{"port revoked under an eager receive", func(t *testing.T, rec *flight.Recorder) {
			// Segment 0 of node 1 is rank 1's port for rank 0; at 39.1 µs it
			// goes between the deposit and the drain of the first eager
			// message (mpi.TestRevokedPortUnderReceiveSweep walks such
			// instants).
			mpiRun(rec, 2, fault.New(1).RevokeSegment(1, 0, 39100*time.Nanosecond), func(c *mpi.Comm) {
				for i := 0; i < 8; i++ {
					var err error
					if c.Rank() == 0 {
						err = c.Send(buf, 8<<10, datatype.Byte, 1, 300+i)
					} else {
						_, err = c.RecvTimeout(buf, 8<<10, datatype.Byte, 0, 300+i, mpi.AutoTimeout)
					}
					if err != nil {
						return
					}
				}
			})
		}, []string{"rank1 packet to/from rank0 dropped (drain failed)", "rank1 ERROR: recv failed (rank0)"}},

		{"degraded direct view", func(t *testing.T, rec *flight.Recorder) {
			// Segment 1 of node 1 backs rank 1's window.
			mpiRun(rec, 2, fault.New(1).RevokeSegment(1, 1, time.Millisecond), func(c *mpi.Comm) {
				w := mkWin(c, 8192, true)
				must(w.Fence())
				c.Proc().Sleep(2 * time.Millisecond)
				if c.Rank() == 0 {
					must(w.Put(buf[:64], 64, datatype.Byte, 1, 0))
				}
				must(w.Fence())
			})
		}, []string{"rank0 window 0: direct view of rank1 degraded to emulation"}},

		{"request for an abandoned window", func(t *testing.T, rec *flight.Recorder) {
			mpiRun(rec, 2, nil, func(c *mpi.Comm) {
				w := mkWin(c, 8192, false)
				must(w.Fence())
				if c.Rank() == 1 {
					w.Abandon()
					return
				}
				c.Proc().Sleep(time.Millisecond)
				if w.Put(buf[:64], 64, datatype.Byte, 1, 0) == nil {
					t.Error("put into an abandoned window succeeded")
				}
			})
		}, []string{"rank1 window 0 abandoned", "rank1 window 0: request of rank0 dropped (unknown window)", "rank0 ERROR: put failed (rank1)"}},

		{"unlock of an unheld lock", func(t *testing.T, rec *flight.Recorder) {
			mpiRun(rec, 2, nil, func(c *mpi.Comm) {
				w := mkWin(c, 8192, false)
				if c.Rank() == 0 {
					if _, err := c.OSCCallTimeout(c.GroupToWorld(1), &oscReq{kind: reqUnlock, win: w.id}, true, 0); err != nil {
						t.Errorf("unlock of an unheld lock: %v", err)
					}
				}
				must(c.Barrier())
			})
		}, []string{"rank1 window 0: request of rank0 dropped (unlock of unheld lock)"}},

		{"post from outside the access group", func(t *testing.T, rec *flight.Recorder) {
			mpiRun(rec, 3, nil, func(c *mpi.Comm) {
				w := mkWin(c, 8192, false)
				switch c.Rank() {
				case 0:
					w.Start([]int{1})
					w.Complete([]int{1})
				case 1:
					c.Proc().Sleep(100 * time.Microsecond) // the stale post arrives first
					w.Post([]int{0})
					w.Wait([]int{0})
				case 2:
					c.OSCNotify(c.GroupToWorld(0), int(reqPost), w.id, 0, false)
				}
				must(c.Barrier())
			})
		}, []string{"rank0 window 0: request of rank2 dropped (unexpected post)"}},

		{"complete from outside the exposure group", func(t *testing.T, rec *flight.Recorder) {
			mpiRun(rec, 3, nil, func(c *mpi.Comm) {
				w := mkWin(c, 8192, false)
				switch c.Rank() {
				case 0:
					c.Proc().Sleep(100 * time.Microsecond) // the stale complete arrives first
					w.Start([]int{1})
					w.Complete([]int{1})
				case 1:
					w.Post([]int{0})
					w.Wait([]int{0})
				case 2:
					c.OSCNotify(c.GroupToWorld(1), int(reqComplete), w.id, 0, false)
				}
				must(c.Barrier())
			})
		}, []string{"rank1 window 0: request of rank2 dropped (unexpected complete)"}},

		{"remote-put toward a revoked stage", func(t *testing.T, rec *flight.Recorder) {
			// Segment 0 of node 0 is rank 0's port for rank 1, the staging
			// area rank 1's handler deposits a large get into.
			mpiRun(rec, 2, fault.New(1).RevokeSegment(0, 0, time.Millisecond), func(c *mpi.Comm) {
				w := mkWin(c, 64<<10, false)
				must(w.Fence())
				c.Proc().Sleep(2 * time.Millisecond)
				if c.Rank() == 0 {
					must(w.Get(buf[:16<<10], 16<<10, datatype.Byte, 1, 0))
				}
				must(c.Barrier())
			})
		}, []string{"rank1 window 0: request of rank0 dropped (remote-put failed)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := flight.New(0)
			tc.run(t, rec)
			var got []string
			for _, ad := range rec.Snapshot("").Actors {
				for _, e := range ad.Events {
					got = append(got, ad.Actor+" "+flight.FormatEvent(e))
				}
			}
			all := strings.Join(got, "\n")
			for _, want := range tc.want {
				if !strings.Contains(all, want) {
					t.Errorf("no %q in the flight dump:\n%s", want, all)
				}
			}
		})
	}
}
