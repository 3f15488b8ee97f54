package mpi_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// rdvCount is an element count of dt whose reduction sends every partial by
// rendezvous on matrixRanks ranks in every family: split unevenly, each
// rank's ring block is 64 bytes above the 16 KiB eager limit.
func rdvCount(dt *datatype.Type) int { return matrixRanks*(16<<10+64)/int(dt.Size()) + 3 }

// contribution is element i of rank's input to op. Integers are small and
// non-zero, so that every order of combining is exact in every type — no
// rounding, no overflow: Byte and Char combine unsigned and take 1 to 3, the
// others -2, -1, 1, 2 and 3. Floats also take, on five of every eight
// elements, a signed zero, an infinity or a NaN, placed so that every order
// of combining gives the same bytes: -0 everywhere; +0 beside -0 (SUM,
// PROD), or the one zero above negatives (MAX) or below positives (MIN),
// where a tie cannot pick; +Inf or -Inf on one rank; a NaN on one rank
// (SUM, PROD) or on every rank (MAX and MIN keep their left operand against
// a NaN).
func contribution(dt *datatype.Type, op mpi.Op, rank, i int) float64 {
	h := (rank + 1) * (i + 2)
	if dt == datatype.Byte || dt == datatype.Char {
		return float64(h%3 + 1)
	}
	finite := float64([...]int64{-2, -1, 1, 2, 3}[h%5])
	if dt != datatype.Float64 && dt != datatype.Float32 {
		return finite
	}
	negZero := math.Copysign(0, -1)
	odd := rank == (i/8)%matrixRanks // the rank holding the element's odd value
	switch i % 8 {
	case 3:
		return negZero
	case 4:
		switch {
		case odd && op == mpi.OpMin:
			return negZero
		case odd:
			return 0
		case op == mpi.OpMax:
			return -1 - float64(rank%2)
		case op == mpi.OpMin:
			return 1 + float64(rank%2)
		}
		return negZero
	case 5:
		if odd {
			return math.Inf(1)
		}
	case 6:
		if odd {
			return math.Inf(-1)
		}
	case 7:
		if odd || op == mpi.OpMax || op == mpi.OpMin {
			return math.NaN()
		}
	}
	return finite
}

// hostOp is op on the host by the combiner's rule: MIN and MAX keep a on a
// tie and against a NaN.
func hostOp[T int64 | float32 | float64](op mpi.Op, a, b T) T {
	switch op {
	case mpi.OpSum:
		return a + b
	case mpi.OpProd:
		return a * b
	case mpi.OpMax:
		if b > a {
			return b
		}
	default:
		if b < a {
			return b
		}
	}
	return a
}

// encode writes vals in dt's little-endian encoding.
func encode(dt *datatype.Type, vals []int64) []byte {
	b := make([]byte, int(dt.Size())*len(vals))
	for i, v := range vals {
		put(dt, b, i, float64(v))
	}
	return b
}

// put writes v as element i of b in dt's encoding: a float in its own
// precision, an integer truncated to its width.
func put(dt *datatype.Type, b []byte, i int, v float64) {
	e := b[i*int(dt.Size()):]
	switch dt {
	case datatype.Float64:
		binary.LittleEndian.PutUint64(e, math.Float64bits(v))
	case datatype.Float32:
		binary.LittleEndian.PutUint32(e, math.Float32bits(float32(v)))
	case datatype.Int64:
		binary.LittleEndian.PutUint64(e, uint64(int64(v)))
	case datatype.Int32:
		binary.LittleEndian.PutUint32(e, uint32(int64(v)))
	case datatype.Int16:
		binary.LittleEndian.PutUint16(e, uint16(int64(v)))
	default:
		e[0] = byte(int64(v))
	}
}

// input is rank's encoded contribution to op, count elements.
func input(dt *datatype.Type, op mpi.Op, rank, count int) []byte {
	b := make([]byte, int(dt.Size())*count)
	for i := 0; i < count; i++ {
		put(dt, b, i, contribution(dt, op, rank, i))
	}
	return b
}

// reduced is the host reference: op over every rank's contribution, folded
// in rank order in dt's own arithmetic.
func reduced(dt *datatype.Type, op mpi.Op, count int) []byte {
	b := make([]byte, int(dt.Size())*count)
	for i := 0; i < count; i++ {
		v := contribution(dt, op, 0, i)
		switch dt {
		case datatype.Float64:
			for r := 1; r < matrixRanks; r++ {
				v = hostOp(op, v, contribution(dt, op, r, i))
			}
		case datatype.Float32:
			v32 := float32(v)
			for r := 1; r < matrixRanks; r++ {
				v32 = hostOp(op, v32, float32(contribution(dt, op, r, i)))
			}
			v = float64(v32)
		default:
			n := int64(v)
			for r := 1; r < matrixRanks; r++ {
				n = hostOp(op, n, int64(contribution(dt, op, r, i)))
			}
			v = float64(n)
		}
		put(dt, b, i, v)
	}
	return b
}

// TestReductionMatrix runs every (type, op) pair through Allreduce under
// each forced algorithm, one world per algorithm with the pairs as
// successive calls, and through Reduce to a non-zero root, each with
// distinct buffers and in place; every result matches the host reference
// bit for bit. It does so at matrixCount elements on 4×1, and at rdvCount
// on 4×1 (every partial drained out of an SCI port) and on 2×2 (half of
// them out of shared memory), where the families that combine as a partial
// drains do so.
func TestReductionMatrix(t *testing.T) {
	const root = 2
	for _, tc := range []struct {
		name       string
		nodes, ppn int
		count      func(*datatype.Type) int
	}{
		{"4x1/eager", 4, 1, func(*datatype.Type) int { return matrixCount }},
		{"4x1/rendezvous", 4, 1, rdvCount},
		{"2x2/rendezvous", 2, 2, rdvCount},
	} {
		for _, alg := range []mpi.CollAlg{mpi.CollP2P, mpi.CollRecDbl, mpi.CollRing, mpi.CollOneSided} {
			t.Run(tc.name+"/"+alg.String(), func(t *testing.T) {
				cfg := mpi.DefaultConfig(tc.nodes, tc.ppn)
				cfg.Protocol.Coll = alg
				mpi.Run(cfg, func(c *mpi.Comm) {
					for _, dt := range reduceTypes {
						n := tc.count(dt)
						for _, op := range reduceOps {
							send, want := input(dt, op, c.Rank(), n), reduced(dt, op, n)
							check := func(call string, got []byte) {
								if !bytes.Equal(got, want) {
									t.Errorf("%s %s %s (%d elements) on rank %d: %d of %d bytes differ from the host reference",
										call, dt, op, n, c.Rank(), differing(got, want), len(want))
								}
							}
							recv := make([]byte, len(send))
							must(c.Allreduce(send, recv, n, dt, op))
							check("Allreduce", recv)
							copy(recv, send)
							must(c.Allreduce(recv, recv, n, dt, op))
							check("Allreduce in place", recv)
							clear(recv)
							must(c.Reduce(send, recv, n, dt, op, root))
							if c.Rank() == root {
								check("Reduce", recv)
							}
							copy(recv, send)
							must(c.Reduce(recv, recv, n, dt, op, root))
							if c.Rank() == root {
								check("Reduce in place", recv)
							}
						}
					}
				})
			})
		}
	}
}

// differing counts the bytes where got and want differ.
func differing(got, want []byte) int {
	n := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			n++
		}
	}
	return n
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
				each(func(dt *datatype.Type, op mpi.Op, off int64) {
					copy(w.LocalBytes()[off:], input(dt, op, target, matrixCount))
				})
			}
			must(w.Fence())
			if c.Rank() != target {
				each(func(dt *datatype.Type, op mpi.Op, off int64) {
					must(w.Accumulate(input(dt, op, c.Rank(), matrixCount), matrixCount, dt, op, target, off))
				})
			}
			must(w.Fence())
			if c.Rank() == target {
				each(func(dt *datatype.Type, op mpi.Op, off int64) {
					want := reduced(dt, op, matrixCount)
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

// TestOverlappingReductionBuffersRefused: a send and a receive buffer that
// overlap without being one buffer are an *mpi.ArgumentError from Allreduce on
// every rank and from Reduce at the root, before any traffic, at an eager
// and at a rendezvous size; the world goes on to reduce in place and with
// distinct buffers. (Unchecked, the ring summed such buffers wrong at
// 8192 elements and right at 64.)
func TestOverlappingReductionBuffersRefused(t *testing.T) {
	const ranks, root = 4, 1
	for _, count := range []int{64, 8192} {
		n := 8 * count
		mpi.Run(mpi.DefaultConfig(ranks, 1), func(c *mpi.Comm) {
			buf := make([]byte, n+8)
			refused := func(call string, err error) {
				var argErr *mpi.ArgumentError
				if !errors.As(err, &argErr) || argErr.Call != call {
					t.Errorf("%d elements, rank %d: %s on overlapping buffers returned %v, want an *mpi.ArgumentError from %s",
						count, c.Rank(), call, err, call)
				}
			}
			refused("Allreduce", c.Allreduce(buf[8:], buf[:n], count, datatype.Int64, mpi.OpSum))
			refused("Allreduce", c.Allreduce(buf[:n], buf[8:], count, datatype.Int64, mpi.OpSum))
			if c.Rank() == root {
				refused("Reduce", c.Reduce(buf[8:], buf[:n], count, datatype.Int64, mpi.OpSum, root))
			}
			send := make([]byte, n)
			for i := 0; i < count; i++ {
				binary.LittleEndian.PutUint64(send[8*i:], uint64(c.Rank()+i))
			}
			sum := func(call string, got []byte) {
				for i := 0; i < count; i++ {
					if v, want := binary.LittleEndian.Uint64(got[8*i:]), uint64(ranks*i+ranks*(ranks-1)/2); v != want {
						t.Errorf("%d elements, rank %d: %s element %d = %d, want %d", count, c.Rank(), call, i, v, want)
						return
					}
				}
			}
			recv := make([]byte, n)
			must(c.Allreduce(send, recv, count, datatype.Int64, mpi.OpSum))
			sum("Allreduce", recv)
			copy(recv, send)
			must(c.Allreduce(recv, recv, count, datatype.Int64, mpi.OpSum))
			sum("Allreduce in place", recv)
			copy(recv, send)
			must(c.Reduce(recv, recv, count, datatype.Int64, mpi.OpSum, root))
			if c.Rank() == root {
				sum("Reduce in place", recv)
			}
		})
	}
}

// TestDrainFoldKeepsOperandOrder: every partial folds in where it lands as
// op(mine, partial), the receiver's own bytes first, also where the operand
// order decides the bytes — MIN and MAX ties between +0 and -0, NaNs of
// different payloads, infinities. The reference is a host fold in each
// family's order: a ring's block b is op(x[b-1], op(x[b-2], … op(x[b+1],
// x[b]))) over the ranks' contributions x, and a tree member folds its
// children smallest bit first into its own bytes (Reduce to rank 1; the
// point-to-point Allreduce reduces to rank 0). Ring, one-sided ring and
// point-to-point allreduces and a Reduce, on 4×1 and 2×2, Float64 and
// Float32, at vectors whose partials travel short, eager and by
// rendezvous. Every call folds (ranks-1) vectors' bytes. Recursive
// doubling folds in rank order instead: each pair leaves op(lower, higher)
// in both members, after the rem fold of the first pairs off a power of
// two, so every rank holds the same bytes; it runs on 4×1, 3×1 and 2×2,
// with distinct buffers and in place, and folds rem + pow2·log2(pow2)
// vectors' bytes per call.
func TestDrainFoldKeepsOperandOrder(t *testing.T) {
	const ranks, root = 4, 1
	specials := []uint64{
		0, 1 << 63, // +0, -0
		0x7ff8000000000001, 0xfff8000000000002, 0x7ff8000000000003, // NaNs
		0x7ff0000000000000, 0xfff0000000000000, // +Inf, -Inf
		0x3ff0000000000000, // 1
	}
	input := func(rank, count int, dt *datatype.Type) []byte {
		b := make([]byte, count*int(dt.Size()))
		for i := 0; i < count; i++ {
			bits := specials[(i*7+rank*3+i/5)%len(specials)]
			if dt == datatype.Float32 {
				binary.LittleEndian.PutUint32(b[4*i:], uint32(bits>>32))
				continue
			}
			binary.LittleEndian.PutUint64(b[8*i:], bits)
		}
		return b
	}
	// fold returns op(mine, partial), mine first.
	fold := func(op mpi.Op, dt *datatype.Type, mine, partial []byte) []byte {
		out := bytes.Clone(mine)
		mpi.Fold(op, dt, out, mine, partial)
		return out
	}
	ring := func(x [ranks][]byte, op mpi.Op, dt *datatype.Type, count int) []byte {
		es := int(dt.Size())
		out := make([]byte, count*es)
		for b := 0; b < ranks; b++ {
			lo, hi := count*b/ranks*es, count*(b+1)/ranks*es
			acc := x[b][lo:hi]
			for j := 1; j < ranks; j++ {
				acc = fold(op, dt, x[(b+j)%ranks][lo:hi], acc)
			}
			copy(out[lo:hi], acc)
		}
		return out
	}
	var tree func(x [ranks][]byte, op mpi.Op, dt *datatype.Type, root, v int) []byte
	tree = func(x [ranks][]byte, op mpi.Op, dt *datatype.Type, root, v int) []byte {
		acc := x[(v+root)%ranks]
		for bit := 1; v&(2*bit-1) == 0 && v|bit < ranks; bit *= 2 {
			acc = fold(op, dt, acc, tree(x, op, dt, root, v|bit))
		}
		return acc
	}
	for _, count := range []int{16, 1 << 10, 40 << 10} { // short, eager and rendezvous partials
		for _, shape := range []struct{ nodes, ppn int }{{4, 1}, {2, 2}} {
			for _, alg := range []mpi.CollAlg{mpi.CollRing, mpi.CollOneSided, mpi.CollP2P} {
				cfg := mpi.DefaultConfig(shape.nodes, shape.ppn)
				cfg.Protocol.Coll = alg
				type key struct {
					dt *datatype.Type
					op mpi.Op
				}
				allreduce, reduce := make(map[key][ranks][]byte), make(map[key][]byte)
				var w *mpi.World
				mpi.Run(cfg, func(c *mpi.Comm) {
					me := c.Rank()
					if me == 0 {
						w = c.World()
					}
					for _, dt := range []*datatype.Type{datatype.Float64, datatype.Float32} {
						for _, op := range []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin} {
							send := input(me, count, dt)
							recv := make([]byte, len(send))
							must(c.Allreduce(send, recv, count, dt, op))
							k := key{dt, op}
							v := allreduce[k]
							v[me] = recv
							allreduce[k] = v
							red := make([]byte, len(send))
							must(c.Reduce(send, red, count, dt, op, root))
							if me == root {
								reduce[k] = red
							}
						}
					}
				})
				name := func(k key) string {
					return fmt.Sprintf("%dx%d %s, %d %s by %v", shape.nodes, shape.ppn, alg, count, k.dt, k.op)
				}
				var combined, payload int64
				for k, got := range allreduce {
					var x [ranks][]byte
					for r := range x {
						x[r] = input(r, count, k.dt)
					}
					want := tree(x, k.op, k.dt, 0, 0)
					if alg != mpi.CollP2P {
						want = ring(x, k.op, k.dt, count)
					}
					for r := 0; r < ranks; r++ {
						if !bytes.Equal(got[r], want) {
							t.Errorf("%s: Allreduce on rank %d: %d bytes differ from the host fold", name(k), r, differing(got[r], want))
						}
					}
					if want := tree(x, k.op, k.dt, root, 0); !bytes.Equal(reduce[k], want) {
						t.Errorf("%s: Reduce: %d bytes differ from the host fold", name(k), differing(reduce[k], want))
					}
					payload += 2 * int64(len(want))
				}
				for r := 0; r < ranks; r++ {
					combined += w.Stats(r).DrainCombined
				}
				if want := (ranks - 1) * payload; combined != want {
					t.Errorf("%dx%d %s at %d elements: %d bytes folded where they landed, want %d",
						shape.nodes, shape.ppn, alg, count, combined, want)
				}
			}
		}
	}
	// recDbl returns the vector every rank holds after recursive doubling
	// over the contributions x, and how many vectors it folds.
	recDbl := func(x [][]byte, op mpi.Op, dt *datatype.Type) (out []byte, folds int) {
		pow2 := 1
		for pow2*2 <= len(x) {
			pow2 *= 2
		}
		rem := len(x) - pow2
		var v [][]byte // by the renumbering: the rem fold's odd members, then the rest
		for r := 1; r < 2*rem; r += 2 {
			v = append(v, fold(op, dt, x[r-1], x[r]))
		}
		v = append(v, x[2*rem:]...)
		folds = rem
		for d := 1; d < pow2; d *= 2 {
			next := make([][]byte, pow2)
			for i := range next {
				next[i] = fold(op, dt, v[min(i, i^d)], v[max(i, i^d)])
			}
			v = next
			folds += pow2
		}
		return v[0], folds
	}
	for _, count := range []int{16, 1 << 10, 40 << 10} {
		for _, shape := range []struct{ nodes, ppn int }{{4, 1}, {3, 1}, {2, 2}} {
			size := shape.nodes * shape.ppn
			cfg := mpi.DefaultConfig(shape.nodes, shape.ppn)
			cfg.Protocol.Coll = mpi.CollRecDbl
			type key struct {
				dt      *datatype.Type
				op      mpi.Op
				inPlace bool
			}
			got := make(map[key][][]byte)
			var w *mpi.World
			mpi.Run(cfg, func(c *mpi.Comm) {
				me := c.Rank()
				if me == 0 {
					w = c.World()
				}
				for _, dt := range []*datatype.Type{datatype.Float64, datatype.Float32} {
					for _, op := range []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin} {
						for _, inPlace := range []bool{false, true} {
							send := input(me, count, dt)
							recv := send
							if !inPlace {
								recv = make([]byte, len(send))
							}
							must(c.Allreduce(send, recv, count, dt, op))
							k := key{dt, op, inPlace}
							if got[k] == nil {
								got[k] = make([][]byte, size)
							}
							got[k][me] = recv
						}
					}
				}
			})
			var combined, want int64
			for k, out := range got {
				x := make([][]byte, size)
				for r := range x {
					x[r] = input(r, count, k.dt)
				}
				ref, folds := recDbl(x, k.op, k.dt)
				for r := 0; r < size; r++ {
					if !bytes.Equal(out[r], ref) {
						t.Errorf("%dx%d recdbl, %d %s by %v (in place %v): Allreduce on rank %d: %d bytes differ from the host fold",
							shape.nodes, shape.ppn, count, k.dt, k.op, k.inPlace, r, differing(out[r], ref))
					}
				}
				want += int64(folds * len(ref))
			}
			for r := 0; r < size; r++ {
				combined += w.Stats(r).DrainCombined
			}
			if combined != want {
				t.Errorf("%dx%d recdbl at %d elements: %d bytes folded where they landed, want %d",
					shape.nodes, shape.ppn, count, combined, want)
			}
		}
	}
}
