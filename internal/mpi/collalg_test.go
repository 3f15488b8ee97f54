package mpi

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/obs"
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
		if err := c.Allreduce(send, recv, count, dt, op); err != nil {
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
		if err := c.Reduce(send, recv, 1, dt, OpSum, 0); err != nil {
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
				if err := c.Bcast(buf, len(buf), datatype.Byte, 1%procs); err != nil {
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
				if err := c.Allgather(mine, blk, datatype.Byte, all); err != nil {
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
				if err := c.Alltoall(send, blk, datatype.Byte, recvA); err != nil {
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
		if err := c.Bcast(buf, 1, dt, 0); err != nil {
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
// Agreement holds by construction: the pick is a function of the call's
// inputs, which are equal on every member, and nothing is shared between
// ranks or learned between calls.
func TestCollChooserDeterministicAcrossRanks(t *testing.T) {
	cfg := collConfig(4, CollAuto)
	var w *World
	Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			w = c.World()
		}
		buf := make([]byte, 64<<10)
		for i := 0; i < 6; i++ {
			must(c.Bcast(buf, len(buf), datatype.Byte, 0))
			recv := make([]byte, 8)
			must(c.Allreduce(Float64Bytes([]float64{1}), recv, 1, datatype.Float64, OpSum))
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

// TestCollZeroCountAuto: a zero-count collective under the adaptive chooser
// completes on every rank, with one rank per node and with two. The
// chooser prices every eligible family for an empty payload, the one-sided
// bcast's pipeline among them, which still runs one chunk, and pairs inside
// a node among them, whose copies of nothing cost nothing.
func TestCollZeroCountAuto(t *testing.T) {
	for _, cfg := range []Config{collConfig(4, CollAuto), DefaultConfig(2, 2)} {
		Run(cfg, func(c *Comm) {
			var none []byte
			calls := []struct {
				name string
				err  error
			}{
				{"Bcast", c.Bcast(none, 0, datatype.Byte, 0)},
				{"Reduce", c.Reduce(none, none, 0, datatype.Float64, OpSum, 0)},
				{"Allreduce", c.Allreduce(none, none, 0, datatype.Float64, OpSum)},
				{"Gather", c.Gather(none, 0, datatype.Byte, none, 0)},
				{"Allgather", c.Allgather(none, 0, datatype.Byte, none)},
				{"Alltoall", c.Alltoall(none, 0, datatype.Byte, none)},
			}
			for _, call := range calls {
				if call.err != nil {
					t.Errorf("rank %d: zero-count %s: %v", c.Rank(), call.name, call.err)
				}
			}
		})
	}
}

// TestCollChoiceIgnoresHistory: the algorithm of a collective call depends
// on the call alone. A 4 KiB Allreduce on 8 nodes takes the family it takes
// in a fresh world even after three 2 MiB calls ran another one.
func TestCollChoiceIgnoresHistory(t *testing.T) {
	const ranks = 8
	// chosen runs an Allreduce of each size in turn on a fresh world and
	// returns how often each family ran, counted over the ranks.
	chosen := func(sizes ...int) [collAlgCount]int64 {
		var w *World
		Run(collConfig(ranks, CollAuto), func(c *Comm) {
			w = c.World()
			for _, n := range sizes {
				send, recv := make([]byte, n), make([]byte, n)
				must(c.Allreduce(send, recv, n/8, datatype.Float64, OpSum))
			}
		})
		return w.WorldStats().CollChosen[collAllreduce]
	}
	fresh := chosen(4 << 10)
	before, all := chosen(2<<20, 2<<20, 2<<20), chosen(2<<20, 2<<20, 2<<20, 4<<10)
	var after [collAlgCount]int64
	for a := range after {
		after[a] = all[a] - before[a]
	}
	if fresh[CollRing] != ranks {
		t.Fatalf("a fresh world runs the 4 KiB allreduce as %v, want ring on all %d ranks", fresh, ranks)
	}
	if after != fresh {
		t.Errorf("after three 2 MiB calls the 4 KiB allreduce runs as %v, in a fresh world as %v", after, fresh)
	}
}

// collShape is one placement of a communicator's members on the cluster:
// nodes × ppn ranks, or (crash) a world whose node 1 crashed and that
// shrank to the survivors before the call. On a grid shape the sweep also
// prices the payloads of BENCH_coll.json's grid (collSweep's grid).
type collShape struct {
	name        string
	nodes, ppn  int
	crash, grid bool
}

// collShapes are the placements the priors must price: one rank per node on
// 2–8 nodes, the dual-SMP testbed on 2–4 nodes, one node's bus alone, and a
// 4-node communicator shrunk by one crashed rank.
var collShapes = []collShape{
	{"2x1", 2, 1, false, false}, {"3x1", 3, 1, false, false}, {"4x1", 4, 1, false, true},
	{"5x1", 5, 1, false, false}, {"6x1", 6, 1, false, false}, {"7x1", 7, 1, false, false},
	{"8x1", 8, 1, false, true},
	{"2x2", 2, 2, false, false}, {"3x2", 3, 2, false, false}, {"4x2", 4, 2, false, false},
	{"1x4", 1, 4, false, false}, {"1x8", 1, 8, false, false},
	{"4x1-crash", 4, 1, true, false},
}

// collSweep lists, per collective, the families and the payloads of the
// shape sweep: bcast and allreduce payloads, and allgather/alltoall
// per-pair blocks (down to 256 B). grid holds the payloads of
// BENCH_coll.json's grid (bench.CollCases) the sizes leave out, swept on the
// grid shapes only (a 2 MiB allreduce costs a quarter second of host time
// per shape); an allgather/alltoall total there is split into blocks of
// total/nodes, as the grid's rows do.
var collSweep = []struct {
	kind        collKind
	algs        []CollAlg
	sizes, grid []int64
}{
	{collBcast, []CollAlg{CollP2P, CollOneSided}, []int64{4 << 10, 64 << 10, 256 << 10, 2 << 20}, nil},
	{collAllreduce, []CollAlg{CollP2P, CollRecDbl, CollRing, CollOneSided}, []int64{4 << 10, 64 << 10, 256 << 10}, []int64{2 << 20}},
	{collAllgather, []CollAlg{CollP2P, CollOneSided}, []int64{256, 1 << 10, 8 << 10, 32 << 10}, []int64{4 << 10, 32 << 10, 128 << 10}},
	{collAlltoall, []CollAlg{CollP2P, CollOneSided}, []int64{256, 1 << 10, 8 << 10, 32 << 10}, []int64{4 << 10, 32 << 10, 128 << 10}},
}

// collSizes returns the payloads (bcast, allreduce) or per-pair blocks
// (allgather, alltoall) the sweep prices kind at on a shape.
func collSizes(sh collShape, kind collKind, sizes, grid []int64) []int64 {
	if !sh.grid {
		return sizes
	}
	sizes = slices.Clip(sizes)
	for _, b := range grid {
		if kind == collAllgather || kind == collAlltoall {
			b /= int64(sh.nodes)
		}
		if !slices.Contains(sizes, b) {
			sizes = append(sizes, b)
		}
	}
	return sizes
}

// collTrace runs one call of kind forced to alg on a fresh world of the
// shape, bytes being the payload (bcast, allreduce) or the per-pair block
// (allgather, alltoall). It returns what rank 0 of the calling
// communicator prices the call at, whether the family is eligible, and the
// bill: from the first member's entry into the call to the last member's
// exit. The prior starts every member at once; the barrier before the call
// releases the members of a node earlier than those it waits for across
// the ringlet, and the longest single member's span would hide what the
// early ones did before the others entered.
func collTrace(sh collShape, kind collKind, alg CollAlg, bytes int64) (prior time.Duration, eligible bool, bill time.Duration) {
	cfg := DefaultConfig(sh.nodes, sh.ppn)
	cfg.Protocol.Coll = alg
	if sh.crash {
		cfg.SCI.Fault = fault.New(1).CrashNode(1, 100*time.Microsecond)
		cfg.Protocol.CollTimeout = time.Second
		cfg.Protocol.RendezvousTimeout = time.Second
	}
	tr := obs.NewTrace(0)
	cfg.Tracer = tr
	Run(cfg, func(c *Comm) {
		if sh.crash {
			c.Proc().Sleep(time.Millisecond)
			nc, err := c.Shrink()
			if err != nil {
				return // the crashed rank
			}
			c = nc
		}
		size := c.Size()
		total, perPeer := bytes, bytes
		if kind == collAllgather || kind == collAlltoall {
			total = bytes * int64(size)
		}
		if c.Rank() == 0 {
			eligible = c.collAlgOK(kind, alg, size, total, perPeer)
			prior = c.modelColl(kind, alg, size, total, perPeer)
		}
		buf, buf2 := make([]byte, total), make([]byte, total)
		must(c.Barrier())
		switch kind {
		case collBcast:
			must(c.Bcast(buf, int(total), datatype.Byte, 0))
		case collAllreduce:
			must(c.Allreduce(buf, buf2, int(total)/8, datatype.Float64, OpSum))
		case collAllgather:
			must(c.Allgather(buf[:perPeer], int(perPeer), datatype.Byte, buf2))
		case collAlltoall:
			must(c.Alltoall(buf, int(perPeer), datatype.Byte, buf2))
		}
	})
	first, last := time.Duration(-1), time.Duration(0)
	for _, sp := range tr.Spans() {
		if sp.Category == "coll" && sp.Name == kind.String() {
			if first < 0 || sp.Start < first {
				first = sp.Start
			}
			last = max(last, sp.EndAt)
		}
	}
	return prior, eligible, last - first
}

// collTerms names what the priors leave out, on the cells where it shows:
// those cells may leave the 10 % band, within the range the term gives.
var collTerms = []struct {
	term   string
	shapes []string
	kind   collKind
	alg    CollAlg
	sizes  []int64
	lo, hi float64
}{
	// fold: off a power of two, the members outside recursive doubling's
	// fold run ahead, and their next message shares an adapter with a
	// later step's, which the step's load does not count.
	{"fold", []string{"6x1", "3x2"}, collAllreduce, CollRecDbl, []int64{4 << 10}, 0.8, 0.9},
	// barrier: a deposit's check waits for every write its node has
	// posted, so two members of a node depositing small blocks wait for
	// each other's; the prior prices each check alone.
	{"barrier", []string{"2x2", "3x2", "4x2"}, collAllreduce, CollOneSided, []int64{4 << 10}, 0.82, 0.92},
	{"barrier", []string{"2x2", "3x2"}, collAllgather, CollOneSided, []int64{256}, 0.82, 0.92},
	{"barrier", []string{"2x2", "3x2"}, collAlltoall, CollOneSided, []int64{256}, 0.82, 0.92},
	// ringlet: with two streams per node at distances of two and more,
	// the flow network's per-segment solution is slower than ShiftBW's
	// load averaged over the segments.
	{"ringlet", []string{"4x2"}, collAllgather, CollOneSided, []int64{32 << 10}, 0.85, 0.92},
	{"ringlet", []string{"4x2"}, collAlltoall, CollOneSided, []int64{32 << 10}, 0.85, 0.92},
	{"ringlet", []string{"4x2"}, collAlltoall, CollP2P, []int64{32 << 10}, 0.85, 0.92},
	// bus: on one node a payload of several chunks keeps copies of
	// different steps on the bus at once — the one-sided tree forwards
	// each chunk as it lands (more copies than one step's). The more
	// chunks, the more the forwarding overlaps.
	{"bus", []string{"1x4", "1x8"}, collBcast, CollOneSided, []int64{256 << 10}, 0.6, 0.72},
	{"bus", []string{"1x4", "1x8"}, collBcast, CollOneSided, []int64{2 << 20}, 0.38, 0.5},
	// exchange: on one node the four pipelines of a recursive-doubling
	// round (both directions of both pairs) keep fewer than the eight
	// stages the prior counts on the bus through their middle chunks, and
	// the bus's congestion curve is steep there (a 64 KiB copy beside 5
	// others takes 1.5 ms, beside 7 2.3 ms): a 256 KiB round's transfer
	// bills 7.24 ms against the prior's 8.31.
	{"exchange", []string{"1x4"}, collAllreduce, CollRecDbl, []int64{256 << 10}, 1.1, 1.2},
}

// collMisses are the cells where the chooser may miss the cheapest bill by
// more than 5 %, each up to its ceiling, because a term of collTerms leaves
// the cheapest family's prior and its pick's apart.
var collMisses = []struct {
	term    string
	shape   string
	kind    collKind
	bytes   int64
	ceiling float64
}{
	// barrier: the one-sided exchange's prior is 14 % under its bill, so
	// it undercuts the ring that bills 11.5 % less.
	{"barrier", "2x2", collAllgather, 256, 0.12},
}

// collMissCeiling returns how much slower than the cheapest bill the
// chooser's pick may be on a cell, and the term that lets it.
func collMissCeiling(shape string, kind collKind, bytes int64) (term string, ceiling float64) {
	for _, m := range collMisses {
		if m.shape == shape && m.kind == kind && m.bytes == bytes {
			return m.term, m.ceiling
		}
	}
	return "", 0.05
}

// collTerm returns the term named for a cell, and the range its prior/bill
// may take.
func collTerm(shape string, kind collKind, alg CollAlg, bytes int64) (term string, lo, hi float64) {
	for _, tm := range collTerms {
		if tm.kind == kind && tm.alg == alg && slices.Contains(tm.shapes, shape) && slices.Contains(tm.sizes, bytes) {
			return tm.term, tm.lo, tm.hi
		}
	}
	return "", 0.9, 1.1
}

// TestCollPriorIsTheBill: on every shape of collShapes, modelColl prices
// one call of each collective, forced to each eligible family, within 10 %
// of what the simulator bills for it, or within the range of the term
// collTerms names for the cell. The pipelining of consecutive calls is
// outside every prior. Where the cheapest prior is not the cheapest bill
// the chooser misses: by at most 5 %, or by at most the ceiling collMisses
// names for the cell. Misses are logged per shape with the worst shortfall.
func TestCollPriorIsTheBill(t *testing.T) {
	for _, sh := range collShapes {
		misses, cells, worst := 0, 0, 0.0
		for _, g := range collSweep {
			for _, bytes := range collSizes(sh, g.kind, g.sizes, g.grid) {
				bestBill, pick, pickBill := time.Duration(0), time.Duration(0), time.Duration(0)
				var bestAlg, pickAlg CollAlg
				for _, alg := range g.algs {
					prior, eligible, bill := collTrace(sh, g.kind, alg, bytes)
					if !eligible {
						continue
					}
					ratio := float64(prior) / float64(bill)
					term, lo, hi := collTerm(sh.name, g.kind, alg, bytes)
					if testing.Verbose() {
						t.Logf("%s %s %d B %s: prior %v, bill %v (%.3f) %s", sh.name, g.kind, bytes, alg, prior, bill, ratio, term)
					}
					if ratio < lo || ratio > hi {
						t.Errorf("%s %s %d B %s: prior %v, bill %v (prior/bill %.3f, want %.2f–%.2f)",
							sh.name, g.kind, bytes, alg, prior, bill, ratio, lo, hi)
					}
					if bestBill == 0 || bill < bestBill {
						bestBill, bestAlg = bill, alg
					}
					if pick == 0 || prior < pick {
						pick, pickBill, pickAlg = prior, bill, alg
					}
				}
				cells++
				if pickBill <= bestBill {
					continue
				}
				misses++
				short := 1 - float64(bestBill)/float64(pickBill)
				worst = max(worst, short)
				term, ceiling := collMissCeiling(sh.name, g.kind, bytes)
				t.Logf("%s %s %d B: the chooser picks %s, %.1f %% slower than %s %s", sh.name, g.kind, bytes, pickAlg, 100*short, bestAlg, term)
				if short > ceiling {
					t.Errorf("%s %s %d B: the chooser's pick %s is %.1f %% slower than %s, want at most %.0f %%",
						sh.name, g.kind, bytes, pickAlg, 100*short, bestAlg, 100*ceiling)
				}
			}
		}
		t.Logf("%s: the chooser misses %d of %d cells, the worst by %.1f %%", sh.name, misses, cells, 100*worst)
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
		if err := c.Bcast(buf, 8, datatype.Byte, 5); !errors.As(err, &argErr) {
			t.Errorf("Bcast bad root: %v, want *ArgumentError", err)
		}
		mixed := datatype.StructOf(
			datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
			datatype.Field{Type: datatype.Float64, Blocklen: 1, Disp: 8},
		).Commit()
		if err := c.Allreduce(make([]byte, 16), make([]byte, 16), 1, mixed, OpSum); !errors.As(err, &argErr) {
			t.Errorf("Allreduce mixed-base datatype: %v, want *ArgumentError", err)
		} else if argErr.Call != "Allreduce" {
			t.Errorf("ArgumentError.Call = %q", argErr.Call)
		}
	})
}

// TestNodeCrashMidAllreduceTypedError: a node crash scheduled mid-window
// must surface on the survivors as a typed error from Allreduce
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
					err = c.Allreduce(send, recv, n/8, datatype.Float64, OpSum)
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
		if err := c.Bcast(buf, len(buf), datatype.Byte, 0); err != nil {
			t.Errorf("rank %d: one-sided bcast under write errors: %v", c.Rank(), err)
		} else if !bytes.Equal(buf, payload) {
			t.Errorf("rank %d: payload corrupted under write errors", c.Rank())
		}
	})
}
