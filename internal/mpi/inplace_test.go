package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"scimpich/internal/datatype"
)

// The reduction collectives accumulate in place: a dense type in the
// caller's recv, a derived type in its private ff linearization. These tests
// hold Allreduce and Reduce against a host reference on every forced
// algorithm with send aliasing recv, with distinct buffers (send must come
// back bit for bit: it is no longer copied first, so nothing may write it),
// with a derived type, and with count 0, on 2 to 8 ranks.

// contribution is element i of rank r's send vector.
func contribution(r, i int) int32 { return int32(r*7919 + i*13 - 5000) }

// reduceCase lays count elements of dt out in a user buffer: slot(i) is the
// byte offset of int32 element i, size the buffer length.
type reduceCase struct {
	name  string
	dt    *datatype.Type
	count int
	elems int
	slot  func(i int) int
	size  int
}

func reduceCases() []reduceCase {
	dense := func(n int) reduceCase {
		return reduceCase{fmt.Sprintf("dense%d", n), datatype.Int32, n, n, func(i int) int { return 4 * i }, 4 * n}
	}
	// 50 blocks of 2 int32, 4 apart, twice: elements sit at 4*(8*(i/2)+i%2)
	// within an instance of extent 4*(4*49+2).
	vec := datatype.Vector(50, 2, 4, datatype.Int32).Commit()
	ext := int(vec.Extent())
	slot := func(i int) int { return (i/100)*ext + 4*(4*((i%100)/2)+i%2) }
	return []reduceCase{
		dense(0), dense(1000), dense(20000), // nothing, eager, rendezvous
		{"vector", vec, 2, 200, slot, 2 * ext},
		{"vector-rdv", vec, 50, 5000, slot, 50 * ext}, // a 20 000 B view: rendezvous
		{"vector0", vec, 0, 0, nil, 2 * ext},
	}
}

const gapByte = 0xEE

// fillSend returns rank r's send buffer for the case: contributions in the
// element slots, a sentinel everywhere else.
func (rc reduceCase) fillSend(r int) []byte {
	buf := bytes.Repeat([]byte{gapByte}, rc.size)
	for i := 0; i < rc.elems; i++ {
		copy(buf[rc.slot(i):], Int32Bytes([]int32{contribution(r, i)}))
	}
	return buf
}

// want returns the buffer a reduction over ranks 0..ranks-1 must leave,
// starting from prior (what the receive buffer held).
func (rc reduceCase) want(prior []byte, ranks int) []byte {
	buf := append([]byte(nil), prior...)
	for i := 0; i < rc.elems; i++ {
		var sum int32
		for r := range ranks {
			sum += contribution(r, i)
		}
		copy(buf[rc.slot(i):], Int32Bytes([]int32{sum}))
	}
	return buf
}

func TestReductionsInPlace(t *testing.T) {
	for _, alg := range collAlgs {
		for _, procs := range []int{2, 3, 4, 8} {
			for _, rc := range reduceCases() {
				for _, alias := range []bool{false, true} {
					name := fmt.Sprintf("%v/p%d/%s/alias=%v", alg, procs, rc.name, alias)
					Run(collConfig(procs, alg), func(c *Comm) {
						me := c.Rank()
						blank := bytes.Repeat([]byte{gapByte}, rc.size)
						buffers := func() (send, recv, sent []byte) {
							send = rc.fillSend(me)
							if alias {
								return send, send, nil
							}
							return send, append([]byte(nil), blank...), append([]byte(nil), send...)
						}
						check := func(what string, send, recv, sent, want []byte) {
							if !bytes.Equal(recv, want) {
								t.Errorf("%s: %s on rank %d: result differs from the host reference", name, what, me)
							}
							if sent != nil && !bytes.Equal(send, sent) {
								t.Errorf("%s: %s on rank %d wrote its send buffer", name, what, me)
							}
						}

						// The ranks enter Allreduce staggered, so a partial can land
						// before its receiver's own send has read the bytes it
						// folds over.
						send, recv, sent := buffers()
						prior := append([]byte(nil), recv...)
						c.Proc().Sleep(time.Duration(me) * 100 * time.Microsecond)
						must(c.Allreduce(send, recv, rc.count, rc.dt, OpSum))
						check("Allreduce", send, recv, sent, rc.want(prior, procs))

						// Reduce to the last rank; the others' recv must stay as it was.
						root := procs - 1
						send, recv, sent = buffers()
						prior = append([]byte(nil), recv...)
						must(c.Reduce(send, recv, rc.count, rc.dt, OpSum, root))
						want := prior
						if me == root {
							want = rc.want(prior, procs)
						}
						check("Reduce", send, recv, sent, want)
					})
				}
			}
		}
	}
}
