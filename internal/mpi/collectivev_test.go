package mpi

import (
	"errors"
	"testing"

	"scimpich/internal/datatype"
)

// vPattern builds per-rank counts (rank r contributes r+1 elements) and
// packed displacements.
func vPattern(procs int) (counts, displs []int, total int) {
	counts = make([]int, procs)
	displs = make([]int, procs)
	for r := 0; r < procs; r++ {
		counts[r] = r + 1
		displs[r] = total
		total += counts[r]
	}
	return
}

func TestGatherv(t *testing.T) {
	const procs = 4
	counts, displs, total := vPattern(procs)
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		me := c.Rank()
		mine := make([]byte, counts[me])
		for i := range mine {
			mine[i] = byte(me*10 + i)
		}
		recv := make([]byte, total)
		must(c.Gatherv(mine, counts[me], datatype.Byte, recv, counts, displs, 1))
		if c.Rank() != 1 {
			return
		}
		for r := 0; r < procs; r++ {
			for i := 0; i < counts[r]; i++ {
				if recv[displs[r]+i] != byte(r*10+i) {
					t.Fatalf("gatherv slot (%d,%d) = %d", r, i, recv[displs[r]+i])
				}
			}
		}
	})
}

func TestScatterv(t *testing.T) {
	const procs = 4
	counts, displs, total := vPattern(procs)
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		me := c.Rank()
		var send []byte
		if me == 0 {
			send = make([]byte, total)
			for r := 0; r < procs; r++ {
				for i := 0; i < counts[r]; i++ {
					send[displs[r]+i] = byte(r + 100)
				}
			}
		}
		recv := make([]byte, counts[me])
		must(c.Scatterv(send, counts, displs, datatype.Byte, recv, counts[me], 0))
		for i := range recv {
			if recv[i] != byte(me+100) {
				t.Fatalf("rank %d slot %d = %d, want %d", me, i, recv[i], me+100)
			}
		}
	})
}

func TestAllgatherv(t *testing.T) {
	for _, procs := range []int{1, 3, 5} {
		counts, displs, total := vPattern(procs)
		Run(DefaultConfig(procs, 1), func(c *Comm) {
			me := c.Rank()
			mine := make([]byte, counts[me])
			for i := range mine {
				mine[i] = byte(me + 1)
			}
			recv := make([]byte, total)
			must(c.Allgatherv(mine, counts[me], datatype.Byte, recv, counts, displs))
			for r := 0; r < procs; r++ {
				for i := 0; i < counts[r]; i++ {
					if recv[displs[r]+i] != byte(r+1) {
						t.Fatalf("procs=%d rank=%d: slot (%d,%d) = %d", procs, me, r, i, recv[displs[r]+i])
					}
				}
			}
		})
	}
}

// TestVCollectiveValidation: a root whose counts do not cover every rank
// gets an *ArgumentError back.
func TestVCollectiveValidation(t *testing.T) {
	Run(DefaultConfig(2, 1), func(c *Comm) {
		if c.Rank() == 0 {
			err := c.Gatherv(nil, 0, datatype.Byte, nil, []int{1}, []int{0}, 0)
			var arg *ArgumentError
			if !errors.As(err, &arg) || arg.Call != "Gatherv" {
				t.Errorf("mismatched counts: err = %v, want *ArgumentError from Gatherv", err)
			}
		} else {
			must(c.Gatherv(nil, 0, datatype.Byte, nil, []int{1, 1}, []int{0, 1}, 0))
		}
	})
}

func TestGathervWithFloat64(t *testing.T) {
	const procs = 3
	counts, displs, total := vPattern(procs)
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		me := c.Rank()
		vals := make([]float64, counts[me])
		for i := range vals {
			vals[i] = float64(me) + float64(i)/10
		}
		recv := make([]byte, total*8)
		must(c.Gatherv(Float64Bytes(vals), counts[me], datatype.Float64, recv, counts, displs, 0))
		if me == 0 {
			all := BytesFloat64(recv)
			for r := 0; r < procs; r++ {
				for i := 0; i < counts[r]; i++ {
					want := float64(r) + float64(i)/10
					if all[displs[r]+i] != want {
						t.Fatalf("element (%d,%d) = %g, want %g", r, i, all[displs[r]+i], want)
					}
				}
			}
		}
	})
}
