package mpi

import (
	"testing"

	"scimpich/internal/datatype"
)

func TestSignatureMismatchPanics(t *testing.T) {
	// Doubles sent, ints received: an MPI type-matching error.
	defer func() {
		if recover() == nil {
			t.Error("mismatched type signatures did not panic")
		}
	}()
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(make([]byte, 64), 8, datatype.Float64, 1, 0))
		case 1:
			must1(c.Recv(make([]byte, 64), 16, datatype.Int32, 0, 0))
		}
	})
}

func TestByteWildcardAccepted(t *testing.T) {
	// Raw byte receives of typed sends remain legal (the wildcard idiom).
	ty := datatype.Vector(8, 2, 4, datatype.Float64).Commit()
	src := fill(int(ty.Extent()) + 8)
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, 1, ty, 1, 0))
		case 1:
			must1(c.Recv(make([]byte, ty.Size()), int(ty.Size()), datatype.Byte, 0, 0))
		}
	})
}

func TestMatchingLayoutsDifferentShapesAccepted(t *testing.T) {
	// Strided send, contiguous receive of the same element sequence: legal.
	v := datatype.Vector(8, 2, 4, datatype.Float64).Commit()
	ct := datatype.Contiguous(16, datatype.Float64).Commit()
	src := fill(int(v.Extent()) + 8)
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, 1, v, 1, 0))
		case 1:
			must1(c.Recv(make([]byte, ct.Size()), 1, ct, 0, 0))
		}
	})
}
