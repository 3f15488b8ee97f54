package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"scimpich/internal/datatype"
)

// Op is a reduction operation over basic datatypes (MPI_Op).
type Op int

// The predefined reduction operations.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "MPI_SUM"
	case OpProd:
		return "MPI_PROD"
	case OpMax:
		return "MPI_MAX"
	case OpMin:
		return "MPI_MIN"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Validate returns nil for a predefined operation and otherwise the
// *ArgumentError that call returns: every call taking an Op refuses an
// unknown one where it is made, before any traffic, so that no combiner —
// on another rank, or at a one-sided target — ever meets it.
func (o Op) Validate(call string) error {
	if o < OpSum || o > OpMin {
		return argErrf(call, "unknown reduction op %v", o)
	}
	return nil
}

// Fold applies dst[i] = op(mine[i], in[i]) elementwise for the elements of
// the basic datatype dt that in holds: the one combine of every reduction
// receive and of the one-sided accumulate, each billed as one pass over
// three streams (memmodel.Model.CopyCost(n, n, 3n) for n bytes). The operand
// order is fixed: MIN and MAX keep mine on a tie, which decides between -0
// and +0 and against NaN. dst may be mine or in.
func Fold(op Op, dt *datatype.Type, dst, mine, in []byte) {
	count := len(in) / int(dt.Size())
	switch dt {
	case datatype.Float64:
		apply(op, dst, mine, in, count, 8,
			func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) },
			func(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) })
	case datatype.Float32:
		apply(op, dst, mine, in, count, 4,
			func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) },
			func(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) })
	case datatype.Int32:
		apply(op, dst, mine, in, count, 4,
			func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) },
			func(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) })
	case datatype.Int64:
		apply(op, dst, mine, in, count, 8,
			func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) },
			func(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) })
	case datatype.Int16:
		apply(op, dst, mine, in, count, 2,
			func(b []byte) int16 { return int16(binary.LittleEndian.Uint16(b)) },
			func(b []byte, v int16) { binary.LittleEndian.PutUint16(b, uint16(v)) })
	case datatype.Byte, datatype.Char:
		apply(op, dst, mine, in, count, 1,
			func(b []byte) uint8 { return b[0] },
			func(b []byte, v uint8) { b[0] = v })
	default:
		panic(fmt.Sprintf("mpi: reduction on unsupported datatype %s", dt))
	}
}

// number covers the element types reductions operate on.
type number interface {
	~int16 | ~int32 | ~int64 | ~uint8 | ~float32 | ~float64
}

func apply[T number](op Op, dst, mine, in []byte, count int, width int, get func([]byte) T, put func([]byte, T)) {
	for i := 0; i < count; i++ {
		a := get(mine[i*width:])
		b := get(in[i*width:])
		var r T
		switch op {
		case OpSum:
			r = a + b
		case OpProd:
			r = a * b
		case OpMax:
			r = a
			if b > a {
				r = b
			}
		case OpMin:
			r = a
			if b < a {
				r = b
			}
		default:
			panic(fmt.Sprintf("mpi: unknown op %v", op))
		}
		put(dst[i*width:], r)
	}
}

// Float64Bytes views a float64 slice as the little-endian byte encoding
// used by the runtime's untyped buffers.
func Float64Bytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

// BytesFloat64 decodes Float64Bytes.
func BytesFloat64(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}

// Int32Bytes encodes an int32 slice.
func Int32Bytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(x))
	}
	return b
}

// BytesInt32 decodes Int32Bytes.
func BytesInt32(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return v
}
