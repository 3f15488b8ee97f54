package mpi_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

// The (basic type × op) matrix: every basic type the combiner implements
// under every predefined op, 28 pairs.
var (
	reduceTypes = []*datatype.Type{datatype.Float64, datatype.Float32, datatype.Int64, datatype.Int32,
		datatype.Int16, datatype.Byte, datatype.Char}
	reduceOps = []mpi.Op{mpi.OpSum, mpi.OpProd, mpi.OpMax, mpi.OpMin}
)

// matrixRanks and matrixCount size every reduction of the matrix: 22
// elements split unevenly over 4 ranks, and 176 B of an 8-byte type is more
// than a one-sided accumulate carries inline.
const matrixRanks, matrixCount = 4, 22

// contribution is element i of rank's input: a small non-zero integer, so
// that every order of combining is exact in every type — no rounding, no
// overflow, no signed zero. Byte and Char combine unsigned and take 1 to 3;
// the others take -2, -1, 1, 2 and 3.
func contribution(dt *datatype.Type, rank, i int) int64 {
	h := (rank + 1) * (i + 2)
	if dt == datatype.Byte || dt == datatype.Char {
		return int64(h%3 + 1)
	}
	return [...]int64{-2, -1, 1, 2, 3}[h%5]
}

// hostOp is op on the host, with plain Go operators.
func hostOp(op mpi.Op, a, b int64) int64 {
	switch op {
	case mpi.OpSum:
		return a + b
	case mpi.OpProd:
		return a * b
	case mpi.OpMax:
		return max(a, b)
	default:
		return min(a, b)
	}
}

// encode writes vals in dt's little-endian encoding.
func encode(dt *datatype.Type, vals []int64) []byte {
	w := int(dt.Size())
	b := make([]byte, w*len(vals))
	for i, v := range vals {
		e := b[i*w:]
		switch dt {
		case datatype.Float64:
			binary.LittleEndian.PutUint64(e, math.Float64bits(float64(v)))
		case datatype.Float32:
			binary.LittleEndian.PutUint32(e, math.Float32bits(float32(v)))
		case datatype.Int64:
			binary.LittleEndian.PutUint64(e, uint64(v))
		case datatype.Int32:
			binary.LittleEndian.PutUint32(e, uint32(v))
		case datatype.Int16:
			binary.LittleEndian.PutUint16(e, uint16(v))
		default:
			e[0] = byte(v)
		}
	}
	return b
}

// input is rank's encoded contribution.
func input(dt *datatype.Type, rank int) []byte {
	vals := make([]int64, matrixCount)
	for i := range vals {
		vals[i] = contribution(dt, rank, i)
	}
	return encode(dt, vals)
}

// reduced is the host reference: op over every rank's contribution.
func reduced(dt *datatype.Type, op mpi.Op) []byte {
	vals := make([]int64, matrixCount)
	for i := range vals {
		vals[i] = contribution(dt, 0, i)
		for r := 1; r < matrixRanks; r++ {
			vals[i] = hostOp(op, vals[i], contribution(dt, r, i))
		}
	}
	return encode(dt, vals)
}

// TestReductionMatrix runs every (type, op) pair through Allreduce under
// each forced algorithm, one world per algorithm with the pairs as
// successive calls, and through Reduce to a non-zero root; every result
// matches the host reference bit for bit.
func TestReductionMatrix(t *testing.T) {
	const root = 2
	for _, alg := range []mpi.CollAlg{mpi.CollP2P, mpi.CollRecDbl, mpi.CollRing, mpi.CollOneSided} {
		cfg := mpi.DefaultConfig(matrixRanks, 1)
		cfg.Protocol.Coll = alg
		mpi.Run(cfg, func(c *mpi.Comm) {
			for _, dt := range reduceTypes {
				for _, op := range reduceOps {
					send, want := input(dt, c.Rank()), reduced(dt, op)
					recv := make([]byte, len(send))
					must(c.Allreduce(send, recv, matrixCount, dt, op))
					if !bytes.Equal(recv, want) {
						t.Errorf("%s: Allreduce %s %s on rank %d = %v, want %v", alg, dt, op, c.Rank(), recv, want)
					}
					clear(recv)
					must(c.Reduce(send, recv, matrixCount, dt, op, root))
					if c.Rank() == root && !bytes.Equal(recv, want) {
						t.Errorf("%s: Reduce %s %s to rank %d = %v, want %v", alg, dt, op, root, recv, want)
					}
				}
			}
		})
	}
}

// TestAccumulateMatrix runs every (type, op) pair through Win.Accumulate on
// a shared and on a private window: the target starts each pair's slot at
// its own contribution and every other rank accumulates its own, so the
// slot ends at the host reference.
func TestAccumulateMatrix(t *testing.T) {
	const target = 1
	const slot = matrixCount * 8
	size := int64(slot * len(reduceTypes) * len(reduceOps))
	mpi.Run(mpi.DefaultConfig(matrixRanks, 1), func(c *mpi.Comm) {
		s := osc.NewSystem(c)
		shared := s.CreateShared(c.AllocShared(size), osc.DefaultConfig())
		private := s.CreatePrivate(make([]byte, size), osc.DefaultConfig())
		for _, w := range []*osc.Win{shared, private} {
			kind := map[*osc.Win]string{shared: "shared", private: "private"}[w]
			// each calls fn with every pair and the offset of its slot.
			each := func(fn func(dt *datatype.Type, op mpi.Op, off int64)) {
				off := int64(0)
				for _, dt := range reduceTypes {
					for _, op := range reduceOps {
						fn(dt, op, off)
						off += slot
					}
				}
			}
			if c.Rank() == target {
				each(func(dt *datatype.Type, _ mpi.Op, off int64) { copy(w.LocalBytes()[off:], input(dt, target)) })
			}
			must(w.Fence())
			if c.Rank() != target {
				each(func(dt *datatype.Type, op mpi.Op, off int64) {
					must(w.Accumulate(input(dt, c.Rank()), matrixCount, dt, op, target, off))
				})
			}
			must(w.Fence())
			if c.Rank() == target {
				each(func(dt *datatype.Type, op mpi.Op, off int64) {
					want := reduced(dt, op)
					if got := w.LocalBytes()[off : off+int64(len(want))]; !bytes.Equal(got, want) {
						t.Errorf("%s window: Accumulate %s %s = %v, want %v", kind, dt, op, got, want)
					}
				})
			}
		}
	})
}

// TestUnknownOpIsArgumentError: an op outside the predefined ones is an
// *ArgumentError naming the call, from Allreduce and Reduce on every rank and
// from Accumulate at the origin. Nothing is sent: the target's window is
// untouched, and the world goes on to reduce normally.
func TestUnknownOpIsArgumentError(t *testing.T) {
	const bad = mpi.Op(9)
	for _, call := range []string{"Allreduce", "Reduce", "Accumulate"} {
		t.Run(call, func(t *testing.T) {
			mpi.Run(mpi.DefaultConfig(2, 1), func(c *mpi.Comm) {
				send, recv := encode(datatype.Int64, []int64{int64(c.Rank() + 1)}), make([]byte, 8)
				w := osc.NewSystem(c).CreatePrivate(make([]byte, 8), osc.DefaultConfig())
				must(w.Fence())
				refused := func(err error) {
					if argErr := (*mpi.ArgumentError)(nil); !errors.As(err, &argErr) || argErr.Call != call {
						t.Errorf("rank %d: %s with %v returned %v, want an *ArgumentError from %s", c.Rank(), call, bad, err, call)
					}
				}
				switch {
				case call == "Allreduce":
					refused(c.Allreduce(send, recv, 1, datatype.Int64, bad))
				case call == "Reduce":
					refused(c.Reduce(send, recv, 1, datatype.Int64, bad, 1))
				case c.Rank() == 0: // rank 1 is the target
					refused(w.Accumulate(send, 1, datatype.Int64, bad, 1, 0))
				}
				must(w.Fence())
				if !bytes.Equal(w.LocalBytes(), make([]byte, 8)) {
					t.Errorf("rank %d: the window holds %v after a refused call", c.Rank(), w.LocalBytes())
				}
				must(c.Allreduce(send, recv, 1, datatype.Int64, mpi.OpSum))
				if want := encode(datatype.Int64, []int64{3}); !bytes.Equal(recv, want) {
					t.Errorf("rank %d: Allreduce after the refusal = %v, want %v", c.Rank(), recv, want)
				}
			})
		})
	}
}
