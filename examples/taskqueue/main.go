// Dynamic load balancing with passive-target one-sided communication — the
// paper's second §4 motivation: applications that "require dynamic load
// balancing with strongly varying task sizes (e.g. in computational
// chemistry)".
//
// Rank 0 exposes a shared counter in a window; workers repeatedly lock the
// window, fetch-and-increment the counter (MPI_Get + MPI_Put under
// MPI_Win_lock/unlock), and process the claimed task. The target never
// polls or participates — exactly the access pattern two-sided messaging
// cannot express without a server loop. Task costs vary wildly to make the
// balance visible; the run asserts every task is executed exactly once.
//
//	go run ./examples/taskqueue
package main

import (
	"fmt"
	"log"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

const (
	ranks = 4
	tasks = 64
)

// taskCost returns the (highly irregular) virtual compute time of task t.
func taskCost(t int) time.Duration {
	h := uint64(t)*0x9e3779b97f4a7c15 + 7
	h ^= h >> 31
	return time.Duration(50+h%2000) * time.Microsecond
}

func main() {
	var done [tasks]int32
	var perRank [ranks]int
	mpi.Run(mpi.DefaultConfig(ranks, 1), func(c *mpi.Comm) {
		me := c.Rank()
		sys := osc.NewSystem(c)

		// The task counter lives in rank 0's shared window.
		seg := c.AllocShared(8)
		win := sys.CreateShared(seg, osc.DefaultConfig())
		if err := c.Barrier(); err != nil {
			log.Fatalf("rank %d: %v", me, err)
		}

		claimed := 0
		for {
			// Fetch-and-increment under the window lock (passive target:
			// rank 0 takes no action).
			if err := win.Lock(0); err != nil {
				log.Fatalf("rank %d: %v", me, err)
			}
			buf := make([]byte, 8)
			if err := win.Get(buf, 8, datatype.Byte, 0, 0); err != nil {
				log.Fatalf("rank %d: %v", me, err)
			}
			next := int(mpi.BytesFloat64(buf)[0])
			if err := win.Put(mpi.Float64Bytes([]float64{float64(next + 1)}), 8, datatype.Byte, 0, 0); err != nil {
				log.Fatalf("rank %d: %v", me, err)
			}
			if err := win.Unlock(0); err != nil {
				log.Fatalf("rank %d: %v", me, err)
			}

			if next >= tasks {
				break
			}
			// "Process" the task.
			c.Proc().Sleep(taskCost(next))
			done[next]++
			claimed++
		}
		perRank[me] = claimed
		if err := c.Barrier(); err != nil {
			log.Fatalf("rank %d: %v", me, err)
		}
	})

	total := 0
	for t, n := range done {
		if n != 1 {
			log.Fatalf("task %d executed %d times", t, n)
		}
		total += int(n)
	}
	fmt.Printf("%d tasks executed exactly once; per-rank claims: %v\n", total, perRank)
	for r, n := range perRank {
		if n == 0 {
			log.Fatalf("rank %d starved (claimed no tasks)", r)
		}
	}
}
