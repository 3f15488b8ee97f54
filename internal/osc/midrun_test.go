package osc

import (
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/sci"
)

// TestStatsReadableMidRun: the Stats structs are plain fields the layers
// bump, so who may read them is a rule, not a lock — any process of the run,
// or anyone after Run returns. Under a plan that makes the devices drop
// duplicates and the adapters retry, every rank reads its own device's, its
// peer node's and its window's counters while messages are in flight, and
// the test reads them again after the run. The race detector (make race)
// is the judge.
func TestStatsReadableMidRun(t *testing.T) {
	const ranks = 2
	type reading struct {
		dev  mpi.DeviceStats
		node sci.Stats
		win  Stats
	}
	cfg := mpi.DefaultConfig(ranks, 1)
	cfg.SCI.Fault = fault.New(7).WithRetries(0.2).WithDuplicates(0.4)
	read := func(w *mpi.World, win *Win, me int) reading {
		return reading{w.Stats(me), w.InterconnectStats(1 - me), win.Snapshot()} // one rank per node
	}
	var world *mpi.World
	var wins [ranks]*Win
	var mid [ranks]reading
	mpi.Run(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		world = c.World()
		win := mkWin(c, 8192, true)
		wins[me] = win
		src, dst := fill(4<<10), make([]byte, 4<<10)
		for round := 0; round < 8; round++ {
			if me == 0 {
				must(c.Send(src, len(src), datatype.Byte, 1, round))
				must1(c.Recv(dst, len(dst), datatype.Byte, 1, round))
			} else {
				must1(c.Recv(dst, len(dst), datatype.Byte, 0, round))
				must(c.Send(src, len(src), datatype.Byte, 0, round))
			}
			must(win.Fence())
			must(win.Put(src, 512, datatype.Byte, 1-me, 0))
			must(win.Fence())
			mid[me] = read(world, win, me)
		}
	})
	var dups, retries int64
	for me := 0; me < ranks; me++ {
		end := read(world, wins[me], me)
		if mid[me].dev.EagerRecvd != 8 || mid[me].win.Puts != 8 || mid[me].node.BytesWritten == 0 {
			t.Errorf("rank %d: mid-run reading misses the work done by then: %+v", me, mid[me])
		}
		if end.dev.EagerRecvd < mid[me].dev.EagerRecvd || end.node.BytesWritten < mid[me].node.BytesWritten || end.win != mid[me].win {
			t.Errorf("rank %d: after the run %+v, during it %+v", me, end, mid[me])
		}
		dups += end.dev.Duplicates
		retries += end.node.Retries
	}
	if dups == 0 || retries == 0 {
		t.Errorf("%d duplicates dropped and %d retries: the plan disturbed nothing", dups, retries)
	}
}
