// Distributed sparse matrix-vector multiply with one-sided communication —
// the paper's §4 motivation: "application areas with irregularly
// distributed data (e.g. sparse matrices) ... are hard to implement with
// [two-sided communication]: to enable arbitrary access to local data by
// remote processes, all processes need to repeatedly perform global
// computation or poll explicitly for incoming requests."
//
// The vector x is distributed over the ranks in windows allocated with
// AllocMem (shared SCI memory, direct remote access). Each rank owns a
// band of rows of a random-structured sparse matrix A; computing y = A*x
// requires reading remote x entries whose positions are known only to the
// reader — a natural fit for MPI_Get with fence synchronization. The result
// is verified against a serial computation.
//
//	go run ./examples/sparsemat
package main

import (
	"fmt"
	"log"
	"math"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

const (
	ranks       = 4
	globalN     = 4096 // vector length
	nnzPerRow   = 12
	localN      = globalN / ranks
	fingerprint = 0x9e3779b97f4a7c15
)

// entry is one nonzero of the matrix.
type entry struct {
	col int
	val float64
}

// rowEntries derives a deterministic pseudo-random sparsity pattern.
func rowEntries(row int) []entry {
	out := make([]entry, 0, nnzPerRow)
	h := uint64(row)*fingerprint + 1
	for k := 0; k < nnzPerRow; k++ {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 29
		col := int(h % uint64(globalN))
		val := float64(h%1000)/997.0 + 0.5
		out = append(out, entry{col: col, val: val})
	}
	return out
}

func xInit(i int) float64 { return math.Sin(float64(i)) + 2 }

func main() {
	var checksum float64
	mpi.Run(mpi.DefaultConfig(ranks, 1), func(c *mpi.Comm) {
		me := c.Rank()
		sys := osc.NewSystem(c)

		// The distributed vector x lives in shared windows.
		xSeg := c.AllocShared(localN * 8)
		xWin := sys.CreateShared(xSeg, osc.DefaultConfig())
		local := make([]float64, localN)
		for i := range local {
			local[i] = xInit(me*localN + i)
		}
		copy(xSeg.Bytes(), mpi.Float64Bytes(local))

		// Expose-and-read epoch: everyone fences, gathers the remote x
		// entries its rows need, fences again.
		if err := xWin.Fence(); err != nil {
			log.Fatalf("rank %d: %v", me, err)
		}
		rows := make([][]entry, localN)
		needed := make(map[int]float64) // global col -> value (filled below)
		for r := 0; r < localN; r++ {
			rows[r] = rowEntries(me*localN + r)
			for _, e := range rows[r] {
				needed[e.col] = 0
			}
		}
		buf := make([]byte, 8)
		for col := range needed {
			owner := col / localN
			off := int64(col%localN) * 8
			if err := xWin.Get(buf, 8, datatype.Byte, owner, off); err != nil {
				log.Fatalf("rank %d: %v", me, err)
			}
			needed[col] = mpi.BytesFloat64(buf)[0]
		}
		if err := xWin.Fence(); err != nil {
			log.Fatalf("rank %d: %v", me, err)
		}

		// Local multiply.
		y := make([]float64, localN)
		for r := 0; r < localN; r++ {
			for _, e := range rows[r] {
				y[r] += e.val * needed[e.col]
			}
		}

		// Verify every row against the closed-form x.
		for r := 0; r < localN; r++ {
			want := 0.0
			for _, e := range rowEntries(me*localN + r) {
				want += e.val * xInit(e.col)
			}
			if math.Abs(y[r]-want) > 1e-9 {
				log.Fatalf("rank %d row %d: got %v want %v", me, r, y[r], want)
			}
		}

		// Global checksum via reduction.
		sum := 0.0
		for _, v := range y {
			sum += v
		}
		recv := make([]byte, 8)
		if err := c.Reduce(mpi.Float64Bytes([]float64{sum}), recv, 1, datatype.Float64, mpi.OpSum, 0); err != nil {
			log.Fatalf("rank %d: %v", me, err)
		}
		if me == 0 {
			checksum = mpi.BytesFloat64(recv)[0]
			fmt.Printf("y = A*x computed over %d ranks: checksum %.6f, stats %+v\n",
				c.Size(), checksum, xWin.Snapshot())
		}
	})
	if checksum == 0 {
		log.Fatal("checksum missing")
	}
}
