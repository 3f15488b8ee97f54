// Jacobi iteration with halo exchange — a complete mini-application
// comparing the two communication models on the same solver, the kind of
// application-level comparison the paper's conclusion calls for.
//
// A 1-D Laplace problem (fixed boundary values, zero interior) is relaxed
// by a fixed budget of Jacobi sweeps over a block-distributed grid. Each
// sweep exchanges one halo cell with each neighbour, either with two-sided
// Sendrecv or with one-sided Puts under post/start/complete/wait
// synchronization; an Allreduce tracks the residual. Both variants must
// produce bit-identical solutions and the residual must fall by orders of
// magnitude.
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

const (
	ranks   = 4
	globalN = 256
	localN  = globalN / ranks
	leftBC  = 1.0
	rightBC = 3.0
	sweeps  = 2048
)

func main() {
	res2, solTwo, tTwo := solve(false)
	res1, solOne, tOne := solve(true)
	for i := range solTwo {
		if solTwo[i] != solOne[i] {
			log.Fatalf("solutions diverge at %d: %g vs %g", i, solTwo[i], solOne[i])
		}
	}
	if res2 != res1 {
		log.Fatalf("residuals diverge: %g vs %g", res2, res1)
	}
	fmt.Printf("%d sweeps: residual %.2e; two-sided %v, one-sided (PSCW) %v\n",
		sweeps, res2, tTwo, tOne)

	// Both distributed variants must match a serial reference bit for bit:
	// the halo exchange is then provably equivalent to a single grid.
	ref := serialReference()
	for i := range ref {
		if solTwo[i] != ref[i] {
			log.Fatalf("distributed solution diverges from serial reference at %d: %g vs %g",
				i, solTwo[i], ref[i])
		}
	}
	fmt.Println("both communication models match the serial reference bit for bit")
}

// serialReference runs the same relaxation on one undistributed grid.
func serialReference() []float64 {
	cur := make([]float64, globalN+2)
	next := make([]float64, globalN+2)
	cur[0], next[0] = leftBC, leftBC
	cur[globalN+1], next[globalN+1] = rightBC, rightBC
	for it := 0; it < sweeps; it++ {
		for i := 1; i <= globalN; i++ {
			next[i] = 0.5 * (cur[i-1] + cur[i+1])
		}
		cur, next = next, cur
	}
	return cur[1 : globalN+1]
}

// solve runs the distributed Jacobi relaxation and returns the final
// residual, rank 0's gathered solution, and the virtual time.
func solve(oneSided bool) (float64, []float64, time.Duration) {
	var finalRes float64
	var solution []float64
	elapsed := mpi.Run(mpi.DefaultConfig(ranks, 1), func(c *mpi.Comm) {
		me := c.Rank()
		// Local grid with two halo cells.
		cur := make([]float64, localN+2)
		next := make([]float64, localN+2)
		if me == 0 {
			cur[0] = leftBC
			next[0] = leftBC
		}
		if me == ranks-1 {
			cur[localN+1] = rightBC
			next[localN+1] = rightBC
		}

		var win *osc.Win
		var group []int
		if oneSided {
			sys := osc.NewSystem(c)
			// The window holds the two halo cells neighbours write into:
			// [0] from the left neighbour, [1] from the right.
			win = sys.CreateShared(c.AllocShared(16), osc.DefaultConfig())
			if me > 0 {
				group = append(group, me-1)
			}
			if me < ranks-1 {
				group = append(group, me+1)
			}
		}

		left, right := me-1, me+1
		for it := 0; it < sweeps; it++ {
			// Halo exchange.
			if oneSided {
				if err := win.Post(group); err != nil {
					log.Fatalf("rank %d: %v", me, err)
				}
				if err := win.Start(group); err != nil {
					log.Fatalf("rank %d: %v", me, err)
				}
				if left >= 0 {
					if err := win.Put(mpi.Float64Bytes(cur[1:2]), 8, datatype.Byte, left, 8); err != nil {
						log.Fatalf("rank %d: %v", me, err)
					}
				}
				if right < ranks {
					if err := win.Put(mpi.Float64Bytes(cur[localN:localN+1]), 8, datatype.Byte, right, 0); err != nil {
						log.Fatalf("rank %d: %v", me, err)
					}
				}
				if err := win.Complete(group); err != nil {
					log.Fatalf("rank %d: %v", me, err)
				}
				if err := win.Wait(group); err != nil {
					log.Fatalf("rank %d: %v", me, err)
				}
				if left >= 0 {
					cur[0] = mpi.BytesFloat64(win.LocalBytes()[0:8])[0]
				}
				if right < ranks {
					cur[localN+1] = mpi.BytesFloat64(win.LocalBytes()[8:16])[0]
				}
			} else {
				in := make([]byte, 8)
				if left >= 0 {
					if _, err := c.Sendrecv(mpi.Float64Bytes(cur[1:2]), 8, datatype.Byte, left, 0,
						in, 8, datatype.Byte, left, 0); err != nil {
						log.Fatalf("rank %d: %v", me, err)
					}
					cur[0] = mpi.BytesFloat64(in)[0]
				}
				if right < ranks {
					if _, err := c.Sendrecv(mpi.Float64Bytes(cur[localN:localN+1]), 8, datatype.Byte, right, 0,
						in, 8, datatype.Byte, right, 0); err != nil {
						log.Fatalf("rank %d: %v", me, err)
					}
					cur[localN+1] = mpi.BytesFloat64(in)[0]
				}
			}

			// Sweep and local residual.
			var res float64
			for i := 1; i <= localN; i++ {
				next[i] = 0.5 * (cur[i-1] + cur[i+1])
				d := next[i] - cur[i]
				res += d * d
			}
			cur, next = next, cur
			// Boundary cells travel with the swap.
			if me == 0 {
				cur[0] = leftBC
			}
			if me == ranks-1 {
				cur[localN+1] = rightBC
			}

			// Synchronize the residual on the final sweep (checking every
			// sweep would be needless global synchronization).
			if it == sweeps-1 {
				recv := make([]byte, 8)
				if err := c.Allreduce(mpi.Float64Bytes([]float64{res}), recv, 1, datatype.Float64, mpi.OpSum); err != nil {
					log.Fatalf("rank %d: %v", me, err)
				}
				if me == 0 {
					finalRes = math.Sqrt(mpi.BytesFloat64(recv)[0])
				}
			}
		}

		// Gather the interior onto rank 0.
		all := make([]byte, globalN*8)
		if err := c.Gather(mpi.Float64Bytes(cur[1:localN+1]), localN*8, datatype.Byte, all, 0); err != nil {
			log.Fatalf("rank %d: %v", me, err)
		}
		if me == 0 {
			solution = mpi.BytesFloat64(all)
		}
	})
	return finalRes, solution, elapsed
}
