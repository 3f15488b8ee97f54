package mpi

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/sci"
)

// Tests of the collective engine: every algorithm family must produce the
// same results as the naive point-to-point algorithms across datatypes
// (including derived ones) and rank counts, the chooser must be
// deterministic across ranks, and faults mid-collective must surface as
// typed errors from the checked API instead of hangs.

var collAlgs = []CollAlg{CollP2P, CollRecDbl, CollRing, CollOneSided, CollAuto}

func collConfig(procs int, alg CollAlg) Config {
	cfg := DefaultConfig(procs, 1)
	cfg.Protocol.Coll = alg
	return cfg
}

// runAllreduce runs one Allreduce under the given forced algorithm and
// returns rank 0's result.
func runAllreduce(t *testing.T, procs int, alg CollAlg, count int, dt *datatype.Type, op Op,
	mkSend func(rank int, buf []byte)) []byte {
	t.Helper()
	var out []byte
	Run(collConfig(procs, alg), func(c *Comm) {
		n := dt.Extent() * int64(count)
		if dt.Contiguous() {
			n = dt.Size() * int64(count)
		}
		send := make([]byte, n)
		mkSend(c.Rank(), send)
		recv := make([]byte, n)
		if err := c.AllreduceChecked(send, recv, count, dt, op); err != nil {
			t.Errorf("procs=%d alg=%s: Allreduce failed: %v", procs, alg, err)
			return
		}
		if c.Rank() == 0 {
			out = recv
		}
	})
	return out
}

// TestAllreduceAlgorithmEquivalence: the property at the heart of the
// engine — every algorithm family (and the adaptive chooser) computes the
// same reduction as the naive P2P reduce+bcast, across rank counts and
// datatypes. Integer sums are exact everywhere; float64 sums may
// re-associate between algorithms, so those compare with a tolerance.
func TestAllreduceAlgorithmEquivalence(t *testing.T) {
	for _, procs := range []int{2, 3, 4, 5, 8} {
		// Exact: int32 sum.
		const n = 1000
		mkInt := func(rank int, buf []byte) {
			v := make([]int32, n)
			for i := range v {
				v[i] = int32(rank*7 + i)
			}
			copy(buf, Int32Bytes(v))
		}
		ref := runAllreduce(t, procs, CollP2P, n, datatype.Int32, OpSum, mkInt)
		for _, alg := range collAlgs[1:] {
			got := runAllreduce(t, procs, alg, n, datatype.Int32, OpSum, mkInt)
			if !bytes.Equal(got, ref) {
				t.Errorf("procs=%d: int32 sum under %s differs from p2p", procs, alg)
			}
		}
		// Exact: float64 max (order-independent).
		mkMax := func(rank int, buf []byte) {
			v := make([]float64, 64)
			for i := range v {
				v[i] = float64((rank*31+i*17)%97) / 3
			}
			copy(buf, Float64Bytes(v))
		}
		refMax := runAllreduce(t, procs, CollP2P, 64, datatype.Float64, OpMax, mkMax)
		for _, alg := range collAlgs[1:] {
			got := runAllreduce(t, procs, alg, 64, datatype.Float64, OpMax, mkMax)
			if !bytes.Equal(got, refMax) {
				t.Errorf("procs=%d: float64 max under %s differs from p2p", procs, alg)
			}
		}
		// Tolerant: float64 sum (association order differs per algorithm).
		mkSum := func(rank int, buf []byte) {
			v := make([]float64, 128)
			for i := range v {
				v[i] = float64(rank+1) * (1 + float64(i)/100)
			}
			copy(buf, Float64Bytes(v))
		}
		refSum := BytesFloat64(runAllreduce(t, procs, CollP2P, 128, datatype.Float64, OpSum, mkSum))
		for _, alg := range collAlgs[1:] {
			got := BytesFloat64(runAllreduce(t, procs, alg, 128, datatype.Float64, OpSum, mkSum))
			for i := range refSum {
				if math.Abs(got[i]-refSum[i]) > 1e-9*math.Abs(refSum[i]) {
					t.Fatalf("procs=%d: float64 sum under %s off at %d: %g vs %g",
						procs, alg, i, got[i], refSum[i])
				}
			}
		}
	}
}

// TestAllreduceDerivedDatatypes: reductions on vector and indexed derived
// datatypes (the lifted basic-only restriction) work under every algorithm
// family and match the P2P result exactly, and the gaps between blocks
// stay untouched.
func TestAllreduceDerivedDatatypes(t *testing.T) {
	vec := datatype.Vector(16, 2, 4, datatype.Int32).Commit()
	idx := datatype.Indexed([]int{3, 1, 4}, []int{0, 5, 9}, datatype.Int32).Commit()
	for _, dt := range []*datatype.Type{vec, idx} {
		mk := func(rank int, buf []byte) {
			for i := range buf {
				buf[i] = 0xEE // sentinel; gaps must keep it
			}
			v := make([]int32, len(buf)/4)
			for i := range v {
				v[i] = int32(rank*5 + i)
			}
			copy(buf, Int32Bytes(v))
		}
		ref := runAllreduce(t, 4, CollP2P, 1, dt, OpSum, mk)
		if ref == nil {
			t.Fatal("no reference result")
		}
		// The typemap blocks hold sums, everything else the receive
		// buffer's prior contents (zero here, since recv starts zeroed...
		// gaps are simply not written).
		covered := make([]bool, len(ref))
		for _, b := range dt.TypeMap() {
			for o := b.Off; o < b.Off+b.Len; o++ {
				covered[o] = true
			}
		}
		refInts := BytesInt32(ref)
		for i := range refInts {
			off := int64(i * 4)
			if !covered[off] {
				continue
			}
			sum := int32(0)
			for r := 0; r < 4; r++ {
				sum += int32(r*5 + i)
			}
			if refInts[i] != sum {
				t.Fatalf("p2p derived reduce: element %d = %d, want %d", i, refInts[i], sum)
			}
		}
		for _, alg := range collAlgs[1:] {
			got := runAllreduce(t, 4, alg, 1, dt, OpSum, mk)
			if !bytes.Equal(got, ref) {
				t.Errorf("derived allreduce under %s differs from p2p", alg)
			}
		}
	}
}

// TestReduceDerivedDatatype: rooted Reduce on a vector of float64 works
// and leaves the right sums in the typemap blocks.
func TestReduceDerivedDatatype(t *testing.T) {
	dt := datatype.Vector(8, 2, 4, datatype.Float64).Commit()
	const procs = 3
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		size := dt.Extent()
		send := make([]byte, size)
		v := make([]float64, int(size)/8)
		for i := range v {
			v[i] = float64(c.Rank() + i)
		}
		copy(send, Float64Bytes(v))
		recv := make([]byte, size)
		if err := c.ReduceChecked(send, recv, 1, dt, OpSum, 0); err != nil {
			t.Errorf("derived reduce failed: %v", err)
			return
		}
		if c.Rank() != 0 {
			return
		}
		got := BytesFloat64(recv)
		for _, b := range dt.TypeMap() {
			for o := b.Off; o < b.Off+b.Len; o += 8 {
				i := int(o / 8)
				want := 0.0
				for r := 0; r < procs; r++ {
					want += float64(r + i)
				}
				if got[i] != want {
					t.Errorf("element %d = %g, want %g", i, got[i], want)
				}
			}
		}
	})
}

// TestBcastAllgatherAlltoallAlgorithmEquivalence: the one-sided variants
// of the data-movement collectives deliver the same bytes as the P2P
// algorithms.
func TestBcastAllgatherAlltoallAlgorithmEquivalence(t *testing.T) {
	for _, procs := range []int{2, 3, 5, 8} {
		for _, alg := range []CollAlg{CollP2P, CollOneSided, CollAuto} {
			Run(collConfig(procs, alg), func(c *Comm) {
				me := c.Rank()
				// Bcast, large enough to exercise chunk pipelining.
				payload := fill(300 << 10)
				buf := make([]byte, len(payload))
				if me == 1%procs {
					copy(buf, payload)
				}
				if err := c.BcastChecked(buf, len(buf), datatype.Byte, 1%procs); err != nil {
					t.Errorf("procs=%d alg=%s: bcast: %v", procs, alg, err)
				} else if !bytes.Equal(buf, payload) {
					t.Errorf("procs=%d alg=%s: bcast corrupted", procs, alg)
				}
				// Allgather.
				const blk = 2048
				mine := make([]byte, blk)
				for i := range mine {
					mine[i] = byte(me*13 + i)
				}
				all := make([]byte, blk*procs)
				if err := c.AllgatherChecked(mine, blk, datatype.Byte, all); err != nil {
					t.Errorf("procs=%d alg=%s: allgather: %v", procs, alg, err)
				}
				for r := 0; r < procs; r++ {
					for i := 0; i < blk; i += 512 {
						if all[r*blk+i] != byte(r*13+i) {
							t.Fatalf("procs=%d alg=%s: allgather slot %d wrong", procs, alg, r)
						}
					}
				}
				// Alltoall.
				send := make([]byte, blk*procs)
				for i := range send {
					send[i] = byte(me*31 + i)
				}
				recvA := make([]byte, blk*procs)
				if err := c.AlltoallChecked(send, blk, datatype.Byte, recvA); err != nil {
					t.Errorf("procs=%d alg=%s: alltoall: %v", procs, alg, err)
				}
				for r := 0; r < procs; r++ {
					for i := 0; i < blk; i += 512 {
						if recvA[r*blk+i] != byte(r*31+me*blk+i) {
							t.Fatalf("procs=%d alg=%s: alltoall slot %d wrong", procs, alg, r)
						}
					}
				}
			})
		}
	}
}

// TestBcastDerivedOneSided: a non-contiguous payload travels the one-sided
// tree through its ff linearization and lands in the right blocks.
func TestBcastDerivedOneSided(t *testing.T) {
	dt := datatype.Vector(256, 4, 8, datatype.Float64).Commit()
	Run(collConfig(4, CollOneSided), func(c *Comm) {
		size := dt.Extent()
		buf := make([]byte, size)
		if c.Rank() == 0 {
			v := make([]float64, int(size)/8)
			for i := range v {
				v[i] = float64(i) * 1.5
			}
			copy(buf, Float64Bytes(v))
		}
		if err := c.BcastChecked(buf, 1, dt, 0); err != nil {
			t.Errorf("derived one-sided bcast: %v", err)
			return
		}
		got := BytesFloat64(buf)
		for _, b := range dt.TypeMap() {
			for o := b.Off; o < b.Off+b.Len; o += 8 {
				i := int(o / 8)
				if got[i] != float64(i)*1.5 {
					t.Fatalf("rank %d: element %d = %g, want %g", c.Rank(), i, got[i], float64(i)*1.5)
				}
			}
		}
	})
}

// TestCollChooserDeterministicAcrossRanks: with the adaptive chooser, all
// members of one matched collective call must pick the same algorithm (a
// divergent pick would deadlock; the metric counters expose the choice).
func TestCollChooserDeterministicAcrossRanks(t *testing.T) {
	cfg := collConfig(4, CollAuto)
	var w *World
	Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			w = c.World()
		}
		buf := make([]byte, 64<<10)
		for i := 0; i < 6; i++ {
			c.Bcast(buf, len(buf), datatype.Byte, 0)
			recv := make([]byte, 8)
			c.Allreduce(Float64Bytes([]float64{1}), recv, 1, datatype.Float64, OpSum)
		}
	})
	total := int64(0)
	for _, algs := range w.WorldStats().CollChosen {
		for _, n := range algs {
			total += n
		}
	}
	// 4 ranks × 6 iterations × 2 collectives = 48 choices; a divergent
	// pick would have deadlocked the run before we got here.
	if total != 48 {
		t.Errorf("recorded %d algorithm choices, want 48", total)
	}
}

// TestCollectiveArgumentErrors: invalid arguments surface as typed
// *ArgumentError from the checked API (and panic from the classic one).
func TestCollectiveArgumentErrors(t *testing.T) {
	Run(DefaultConfig(2, 1), func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		var argErr *ArgumentError
		buf := make([]byte, 8)
		if err := c.BcastChecked(buf, 8, datatype.Byte, 5); !errors.As(err, &argErr) {
			t.Errorf("Bcast bad root: %v, want *ArgumentError", err)
		}
		if err := c.GathervChecked(buf, 8, datatype.Byte, buf, []int{1}, []int{0}, 0); !errors.As(err, &argErr) {
			t.Errorf("Gatherv bad counts: %v, want *ArgumentError", err)
		}
		mixed := datatype.StructOf(
			datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
			datatype.Field{Type: datatype.Float64, Blocklen: 1, Disp: 8},
		).Commit()
		if err := c.AllreduceChecked(make([]byte, 16), make([]byte, 16), 1, mixed, OpSum); !errors.As(err, &argErr) {
			t.Errorf("Allreduce mixed-base datatype: %v, want *ArgumentError", err)
		} else if argErr.Call != "Allreduce" {
			t.Errorf("ArgumentError.Call = %q", argErr.Call)
		}
	})
}

// TestNodeCrashMidAllreduceTypedError: a node crash scheduled mid-window
// must surface on the survivors as a typed error from AllreduceChecked
// (connection-lost or watchdog timeout) — never a hang — under every
// algorithm family, and runs stay deterministic.
func TestNodeCrashMidAllreduceTypedError(t *testing.T) {
	for _, alg := range []CollAlg{CollP2P, CollRecDbl, CollRing, CollOneSided} {
		run := func() error {
			cfg := collConfig(4, alg)
			cfg.SCI.Fault = fault.New(3).CrashNode(1, 400*time.Microsecond)
			cfg.Protocol.CollTimeout = 2 * time.Millisecond
			cfg.Protocol.RendezvousTimeout = 2 * time.Millisecond
			var r0Err error
			Run(cfg, func(c *Comm) {
				n := 256 << 10
				send := fill(n)
				recv := make([]byte, n)
				// A couple of rounds so the crash lands mid-collective.
				var err error
				for i := 0; i < 4 && err == nil; i++ {
					err = c.AllreduceChecked(send, recv, n/8, datatype.Float64, OpSum)
				}
				if c.Rank() == 0 {
					r0Err = err
				}
			})
			return r0Err
		}
		err := run()
		if err == nil {
			t.Errorf("alg=%s: rank 0 completed all rounds despite node 1 crashing", alg)
			continue
		}
		var lost sci.ErrConnectionLost
		var fe *fault.Error
		if !errors.As(err, &lost) && !(errors.As(err, &fe) && fe.Kind == fault.Timeout) {
			t.Errorf("alg=%s: error %v, want connection-lost or timeout", alg, err)
		}
		if err2 := run(); err2 == nil || err.Error() != err2.Error() {
			t.Errorf("alg=%s: same-seed crash runs diverge: %v vs %v", alg, err, err2)
		}
	}
}

// TestLinkFaultsDontBreakOneSidedCollectives: transient injected write
// errors on the deposit path are retried; the collective still completes
// with intact data.
func TestLinkFaultsDontBreakOneSidedCollectives(t *testing.T) {
	cfg := collConfig(4, CollOneSided)
	cfg.SCI.Fault = fault.New(11).WithWriteErrors(0.2)
	payload := fill(200 << 10)
	Run(cfg, func(c *Comm) {
		buf := make([]byte, len(payload))
		if c.Rank() == 0 {
			copy(buf, payload)
		}
		if err := c.BcastChecked(buf, len(buf), datatype.Byte, 0); err != nil {
			t.Errorf("rank %d: one-sided bcast under write errors: %v", c.Rank(), err)
		} else if !bytes.Equal(buf, payload) {
			t.Errorf("rank %d: payload corrupted under write errors", c.Rank())
		}
	})
}
