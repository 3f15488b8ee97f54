package osc

import (
	"bytes"
	"math/rand"
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

// Property tests: random one-sided access programs, executed on the
// simulated cluster and replayed against a sequential reference model.
// Fence epochs order the accesses, so the reference is deterministic.

type accessOp struct {
	origin  int
	put     bool
	target  int
	off     int64
	n       int64
	pattern byte
}

func TestPropertyRandomFencedPutsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const winSize = 4096
	for trial := 0; trial < 25; trial++ {
		procs := rng.Intn(3) + 2
		epochs := rng.Intn(4) + 1
		shared := rng.Intn(4) > 0 // mix shared and private windows

		// Generate a program: per epoch, a set of non-overlapping puts
		// (MPI forbids conflicting puts in one epoch).
		var program [][]accessOp
		for e := 0; e < epochs; e++ {
			var ops []accessOp
			used := map[int]map[int64]bool{} // target -> claimed 64B cells
			for k := 0; k < rng.Intn(8)+1; k++ {
				target := rng.Intn(procs)
				cell := int64(rng.Intn(winSize / 64))
				if used[target] == nil {
					used[target] = map[int64]bool{}
				}
				if used[target][cell] {
					continue
				}
				used[target][cell] = true
				ops = append(ops, accessOp{
					origin:  rng.Intn(procs),
					put:     true,
					target:  target,
					off:     cell * 64,
					n:       int64(rng.Intn(64) + 1),
					pattern: byte(rng.Intn(255) + 1),
				})
			}
			program = append(program, ops)
		}

		// Reference: apply epochs in order.
		ref := make([][]byte, procs)
		for i := range ref {
			ref[i] = make([]byte, winSize)
		}
		for _, ops := range program {
			for _, op := range ops {
				for j := int64(0); j < op.n; j++ {
					ref[op.target][op.off+j] = op.pattern
				}
			}
		}

		// Simulated run.
		finals := make([][]byte, procs)
		mpi.Run(mpi.DefaultConfig(procs, 1), func(c *mpi.Comm) {
			w := mkWin(c, winSize, shared)
			must(w.Fence())
			for _, ops := range program {
				for _, op := range ops {
					if op.origin != c.Rank() {
						continue
					}
					buf := bytes.Repeat([]byte{op.pattern}, int(op.n))
					must(w.Put(buf, int(op.n), datatype.Byte, op.target, op.off))
				}
				must(w.Fence())
			}
			finals[c.Rank()] = append([]byte(nil), w.LocalBytes()...)
		})
		for r := 0; r < procs; r++ {
			if !bytes.Equal(finals[r], ref[r]) {
				t.Fatalf("trial %d (procs=%d shared=%v): window %d diverges from reference",
					trial, procs, shared, r)
			}
		}
	}
}

func TestPropertyGetsObserveFencedState(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	const winSize = 2048
	for trial := 0; trial < 20; trial++ {
		shared := rng.Intn(2) == 0
		fill := byte(rng.Intn(254) + 1)
		readers := rng.Intn(2) + 1
		offs := make([]int64, 8)
		lens := make([]int64, 8)
		for i := range offs {
			lens[i] = int64(rng.Intn(256) + 1)
			offs[i] = int64(rng.Intn(winSize - int(lens[i])))
		}
		mpi.Run(mpi.DefaultConfig(readers+1, 1), func(c *mpi.Comm) {
			w := mkWin(c, winSize, shared)
			if c.Rank() == 0 {
				for i := range w.LocalBytes() {
					w.LocalBytes()[i] = fill
				}
			}
			must(w.Fence())
			if c.Rank() > 0 {
				for i := range offs {
					buf := make([]byte, lens[i])
					must(w.Get(buf, int(lens[i]), datatype.Byte, 0, offs[i]))
					for _, b := range buf {
						if b != fill {
							t.Fatalf("trial %d: get observed %d, want %d", trial, b, fill)
						}
					}
				}
			}
			must(w.Fence())
		})
	}
}

func TestPropertyAccumulateOrderIndependentSum(t *testing.T) {
	// Sums commute: any interleaving of accumulates must produce the total.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		procs := rng.Intn(3) + 2
		perRank := rng.Intn(10) + 1
		vals := make([][]float64, procs)
		want := 0.0
		for r := range vals {
			vals[r] = make([]float64, perRank)
			for i := range vals[r] {
				vals[r][i] = float64(rng.Intn(100) + 1)
				want += vals[r][i]
			}
		}
		var got float64
		mpi.Run(mpi.DefaultConfig(procs, 1), func(c *mpi.Comm) {
			w := mkWin(c, 8, true)
			must(w.Fence())
			for _, v := range vals[c.Rank()] {
				must(w.Accumulate(mpi.Float64Bytes([]float64{v}), 1, datatype.Float64, mpi.OpSum, 0, 0))
			}
			must(w.Fence())
			if c.Rank() == 0 {
				got = mpi.BytesFloat64(w.LocalBytes())[0]
			}
		})
		if got != want {
			t.Fatalf("trial %d: accumulated %g, want %g", trial, got, want)
		}
	}
}
