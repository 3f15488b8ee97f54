package osc

import (
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/sci"
)

// TestFenceEpochOnShardedEngine runs a one-sided fence epoch — every rank
// puts into its right neighbour and accumulates into its left — on the
// conservative-parallel engine at several shard counts, and pins the final
// virtual time and window contents against the sequential oracle. Under
// the race detector (the shard-stress job) this also exercises the
// one-sided protocol handlers with real goroutine parallelism.
func TestFenceEpochOnShardedEngine(t *testing.T) {
	const ranks = 4
	run := func(shards int) (time.Duration, [ranks]uint64) {
		cfg := mpi.DefaultConfig(ranks, 1)
		cfg.Shards = shards
		var sums [ranks]uint64
		end := mpi.Run(cfg, func(c *mpi.Comm) {
			w := mkWin(c, 4096, true)
			me, size := c.Rank(), c.Size()
			w.Fence()
			src := fill(512)
			for i := range src {
				src[i] += byte(me)
			}
			w.Put(src, len(src), datatype.Byte, (me+1)%size, 0)
			acc := mpi.Int32Bytes([]int32{int32(me + 1), 3, -7, int32(size)})
			w.Accumulate(acc, 4, datatype.Int32, mpi.OpSum, (me-1+size)%size, 2048)
			w.Fence()
			var sum uint64
			for i, b := range w.LocalBytes() {
				sum += uint64(b) * uint64(i+1)
			}
			sums[me] = sum
		})
		return end, sums
	}
	oracleEnd, oracleSums := run(0)
	if oracleEnd <= 0 {
		t.Fatal("oracle epoch made no progress")
	}
	for _, shards := range []int{2, 4} {
		end, sums := run(shards)
		if end != oracleEnd {
			t.Errorf("shards=%d: end %v != oracle %v", shards, end, oracleEnd)
		}
		if sums != oracleSums {
			t.Errorf("shards=%d: window checksums %v != oracle %v", shards, sums, oracleSums)
		}
	}
}

// TestStatsReadableMidRun: the Stats structs are plain fields the layers
// bump, so who may read them is a rule, not a lock — any process of the run,
// or anyone after Run returns. Under a plan that makes the devices drop
// duplicates and the adapters retry, every rank reads its own device's, its
// peer node's and its window's counters while messages are in flight, and
// the test reads them again after the run, on the oracle and on a sharded
// engine. The race detector (make race, make shard-stress) is the judge.
func TestStatsReadableMidRun(t *testing.T) {
	const ranks = 2
	type reading struct {
		dev  mpi.DeviceStats
		node sci.Stats
		win  Stats
	}
	for _, shards := range []int{0, 2} {
		cfg := mpi.DefaultConfig(ranks, 1)
		cfg.Shards = shards
		cfg.SCI.Fault = fault.New(7).WithRetries(0.2).WithDuplicates(0.4)
		read := func(w *mpi.World, win *Win, me int) reading {
			return reading{w.Stats(me), w.InterconnectStats(w.NodeOf(1 - me)), win.Snapshot()}
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
					c.Send(src, len(src), datatype.Byte, 1, round)
					c.Recv(dst, len(dst), datatype.Byte, 1, round)
				} else {
					c.Recv(dst, len(dst), datatype.Byte, 0, round)
					c.Send(src, len(src), datatype.Byte, 0, round)
				}
				win.Fence()
				win.Put(src, 512, datatype.Byte, 1-me, 0)
				win.Fence()
				mid[me] = read(world, win, me)
			}
		})
		var dups, retries int64
		for me := 0; me < ranks; me++ {
			end := read(world, wins[me], me)
			if mid[me].dev.EagerRecvd != 8 || mid[me].win.Puts != 8 || mid[me].node.BytesWritten == 0 {
				t.Errorf("shards=%d rank %d: mid-run reading misses the work done by then: %+v", shards, me, mid[me])
			}
			if end.dev.EagerRecvd < mid[me].dev.EagerRecvd || end.node.BytesWritten < mid[me].node.BytesWritten || end.win != mid[me].win {
				t.Errorf("shards=%d rank %d: after the run %+v, during it %+v", shards, me, end, mid[me])
			}
			dups += end.dev.Duplicates
			retries += end.node.Retries
		}
		if dups == 0 || retries == 0 {
			t.Errorf("shards=%d: %d duplicates dropped and %d retries: the plan disturbed nothing", shards, dups, retries)
		}
	}
}
