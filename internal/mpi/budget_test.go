package mpi

// A call costs what it touches: the per-message and per-call allocation
// budgets above shortMax — eager, rendezvous on every data engine, the
// reduction collectives — and the proof that tracing which is off boxes
// nothing. Every budget here is measured with tags >= 256 and payloads
// >= 256 B: Go boxes an integer below 256 into an interface from a static
// table, so a gate fed small tags measures that table, not the code.

import (
	"encoding/binary"
	"testing"
	"time"
	"unsafe"

	"scimpich/internal/allocwin"
	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// hostCost builds a world for cfg, runs round warm times on every rank, and
// returns what n further rounds allocated per round, over all ranks: objects
// and bytes (see allocwin for what keeps the count repeatable).
func hostCost(t *testing.T, cfg Config, warm, n int, round func(c *Comm, i int)) (objs, bytes float64) {
	t.Helper()
	if allocwin.RaceEnabled {
		t.Skip("allocation budgets are not checked under the race detector")
	}
	win := allocwin.New(t)
	Run(cfg, func(c *Comm) {
		for i := 0; i < warm; i++ {
			round(c, i)
		}
		must(c.Barrier())
		if c.Rank() == 0 {
			win.Open()
		}
		for i := 0; i < n; i++ {
			round(c, warm+i)
		}
		must(c.Barrier()) // every rank is done before rank 0 reads
		if c.Rank() == 0 {
			win.Close()
		}
	})
	return float64(win.Objects()) / float64(n), float64(win.Bytes()) / float64(n)
}

// exchange is a round of hostCost between ranks 0 and 1: a message of count
// elements of dt each way, at the given tag.
func exchange(buf []byte, count int, dt *datatype.Type, tag int) func(c *Comm, i int) {
	return func(c *Comm, _ int) {
		switch c.Rank() {
		case 0:
			must(c.Send(buf, count, dt, 1, tag))
			must1(c.Recv(buf, count, dt, 1, tag+1))
		case 1:
			must1(c.Recv(buf, count, dt, 0, tag))
			must(c.Send(buf, count, dt, 0, tag+1))
		}
	}
}

// TestAllocsEagerBudget pins a 4 KiB eager message at no object, between
// nodes and inside one (tags 1000/1001): the Recv recycles its Request and
// returns the Status by value, the store barrier's future is the node's own,
// re-armed, and the eager ack is a recycled envelope.
func TestAllocsEagerBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"inter-node", DefaultConfig(2, 1)},
		{"intra-node", DefaultConfig(1, 2)},
	} {
		buf := make([]byte, 4<<10)
		objs, bytes := hostCost(t, tc.cfg, 50, 500, exchange(buf, len(buf), datatype.Byte, 1000))
		t.Logf("%s 4 KiB eager message: %.2f objects, %.1f B", tc.name, objs/2, bytes/2)
		if objs/2 >= 0.5 {
			t.Errorf("%s: %.2f objects per 4 KiB eager message, want none (1 until PR 23)", tc.name, objs/2)
		}
	}
}

// vec256K is a committed vector of 256 KiB of data in blocks of the given
// size, a block apart (the stride-2x layout of Figure 7), and a buffer that
// holds one.
func vec256K(block int) (*datatype.Type, []byte) {
	dt := datatype.Vector((256<<10)/block, block, 2*block, datatype.Byte).Commit()
	return dt, make([]byte, dt.Extent())
}

// TestAllocsRendezvousBudget pins a 256 KiB rendezvous message (tags
// 1000/1001) at under half an object and 64 B on every data engine of the
// SCI transport: contiguous, direct_pack_ff over PIO at 1 024 B blocks,
// scatter-gather DMA and the staged path at 8 B blocks, and the generic pack
// engine. The reply channel, the pack cursors, the descriptor list and the
// receiver's transfer state live in recycled scratch records, the four store
// barriers wait on the node's own future, the DMA request is pooled, the
// staged path packs into its pooled scratch through the buffer's own Sink
// and the Recv recycles its Request.
func TestAllocsRendezvousBudget(t *testing.T) {
	const maxObjs, maxBytes = 0.5, 64
	contig := make([]byte, 256<<10)
	ff1024, buf1024 := vec256K(1024)
	vec8, buf8 := vec256K(8)
	with := func(set func(*ProtocolConfig)) Config {
		cfg := DefaultConfig(2, 1)
		set(&cfg.Protocol)
		return cfg
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		buf   []byte
		count int
		dt    *datatype.Type
	}{
		{"contiguous", DefaultConfig(2, 1), contig, len(contig), datatype.Byte},
		{"ff-pio-1024", with(func(p *ProtocolConfig) { p.Path = PathPIO }), buf1024, 1, ff1024},
		{"dma-sg-8", with(func(p *ProtocolConfig) { p.Path = PathDMA }), buf8, 1, vec8},
		{"staged-8", with(func(p *ProtocolConfig) { p.Path = PathStaged }), buf8, 1, vec8},
		{"generic-1024", with(func(p *ProtocolConfig) { p.UseFF = false }), buf1024, 1, ff1024},
	} {
		objs, bytes := hostCost(t, tc.cfg, 10, 100, exchange(tc.buf, tc.count, tc.dt, 1000))
		t.Logf("%s 256 KiB rendezvous message: %.2f objects, %.1f B", tc.name, objs/2, bytes/2)
		if objs/2 >= maxObjs || bytes/2 > maxBytes {
			t.Errorf("%s: %.2f objects and %.0f B per 256 KiB message, budget is under %v objects and %d B",
				tc.name, objs/2, bytes/2, maxObjs, maxBytes)
		}
	}
}

// TestAllocsAllreduceBudget pins an 8-rank Allreduce at 4 objects per rank
// and call (none expected) on every forced algorithm at 4 KiB, and the ring
// and recursive doubling at 2 MiB, with distinct buffers and in place
// (recursive doubling at 4 KiB too), at the same count with no term in the
// vector length: the accumulator is the caller's recv, the ring's partials
// combine into it as they drain (TestAllocsRingAllreduceBorrowsNoScratch)
// and every other scratch vector is pooled — recursive doubling's partials
// fold into recv and one pooled scratch vector per rank and call, in turn —
// the internal receives recycle their Requests and the collective view of
// the communicator is made once. An in-place call takes as many pooled
// buffers as one with distinct buffers: recursive doubling's copy at the
// end of an odd fold count borrows none. (The payload is >= 256 B;
// collective tags are all >= 1<<20.)
func TestAllocsAllreduceBudget(t *testing.T) {
	const ranks = 8
	type call struct {
		alg   CollAlg
		bytes int
	}
	distinctGets := make(map[call]int64)
	for _, tc := range []struct {
		alg     CollAlg
		bytes   int
		inPlace bool
	}{
		{CollRing, 4 << 10, false}, {CollRecDbl, 4 << 10, false}, {CollP2P, 4 << 10, false}, {CollOneSided, 4 << 10, false},
		{CollRecDbl, 4 << 10, true},
		{CollRing, 2 << 20, false}, {CollRing, 2 << 20, true},
		{CollRecDbl, 2 << 20, false}, {CollRecDbl, 2 << 20, true},
	} {
		cfg := DefaultConfig(ranks, 1)
		cfg.Protocol.Coll = tc.alg
		send, recv := make([][]byte, ranks), make([][]byte, ranks)
		for r := range send {
			send[r], recv[r] = make([]byte, tc.bytes), make([]byte, tc.bytes)
			if tc.inPlace {
				recv[r] = send[r]
			}
		}
		gets := bufpool.Snapshot().Gets
		objs, bytes := hostCost(t, cfg, 4, 20, func(c *Comm, _ int) {
			must(c.Allreduce(send[c.Rank()], recv[c.Rank()], tc.bytes/8, datatype.Int64, OpSum))
		})
		gets = bufpool.Snapshot().Gets - gets
		t.Logf("%v allreduce of %d B on %d ranks (in place %v): %.2f objects, %.1f B, %.2f pool gets per rank and call",
			tc.alg, tc.bytes, ranks, tc.inPlace, objs/ranks, bytes/ranks, float64(gets)/(24*ranks))
		if k := (call{tc.alg, tc.bytes}); !tc.inPlace {
			distinctGets[k] = gets
		} else if gets != distinctGets[k] {
			t.Errorf("%v at %d B: the in-place calls take %d pooled buffers, those with distinct buffers %d; want as many",
				tc.alg, tc.bytes, gets, distinctGets[k])
		}
		if objs/ranks > 4 {
			t.Errorf("%v at %d B (in place %v): %.2f objects per rank and call, budget is 4", tc.alg, tc.bytes, tc.inPlace, objs/ranks)
		}
		if bytes/ranks > 4<<10 {
			t.Errorf("%v at %d B (in place %v): %.0f B per rank and call: the cost grows with the vector", tc.alg, tc.bytes, tc.inPlace, bytes/ranks)
		}
	}
}

// TestAllocsRingAllreduceBorrowsNoScratch: a fresh 8-rank world's first
// reduction takes no pooled scratch block, with distinct dense buffers or in
// place: each partial folds with the rank's own bytes where it lands,
// straight into recv — a 2 MiB ring Allreduce's rendezvous chunks, a 4 KiB
// ring Allreduce's eager blocks, a 4 KiB one-sided ring Allreduce's window
// blocks and a 4 KiB point-to-point Reduce's eager partials. The two calls
// of a case differ in nothing else, so their bufpool.Get counts are equal,
// and every sum is right.
func TestAllocsRingAllreduceBorrowsNoScratch(t *testing.T) {
	const ranks, root = 8, 3
	for _, tc := range []struct {
		alg    CollAlg
		n      int
		reduce bool
	}{
		{CollRing, 2 << 20, false}, {CollRing, 4 << 10, false}, {CollOneSided, 4 << 10, false}, {CollP2P, 4 << 10, true},
	} {
		call := "Allreduce"
		if tc.reduce {
			call = "Reduce"
		}
		// gets runs the case's reduction on a fresh world and returns the
		// pool gets of the whole run.
		gets := func(inPlace bool) int64 {
			before := bufpool.Snapshot().Gets
			Run(collConfig(ranks, tc.alg), func(c *Comm) {
				n := tc.n
				send := make([]byte, n)
				for i := 0; i < n/8; i++ {
					binary.LittleEndian.PutUint64(send[8*i:], uint64(c.Rank()+i))
				}
				recv := make([]byte, n)
				if inPlace {
					recv = send
				}
				if tc.reduce {
					must(c.Reduce(send, recv, n/8, datatype.Int64, OpSum, root))
					if c.Rank() != root {
						return
					}
				} else {
					must(c.Allreduce(send, recv, n/8, datatype.Int64, OpSum))
				}
				for _, i := range []int{0, n/16 + 3, n/8 - 1} {
					want := int64(ranks*(ranks-1)/2 + ranks*i)
					if got := int64(binary.LittleEndian.Uint64(recv[8*i:])); got != want {
						t.Errorf("%v %s of %d B, in place %v: rank %d element %d = %d, want %d", tc.alg, call, n, inPlace, c.Rank(), i, got, want)
					}
				}
			})
			return bufpool.Snapshot().Gets - before
		}
		distinct, inPlace := gets(false), gets(true)
		t.Logf("pool gets per %v %s of %d B on %d ranks: %d with distinct buffers, %d in place", tc.alg, call, tc.n, ranks, distinct, inPlace)
		if inPlace != distinct {
			t.Errorf("%v %s of %d B: the in-place call takes %d more pooled buffers than the one with distinct buffers, want none (no scratch block)",
				tc.alg, call, tc.n, inPlace-distinct)
		}
	}
}

// TestTracingOffBoxesNothing: with no tracer attached, an eager and a
// rendezvous exchange allocate the same at tag 70 000 as at tag 7. Go boxes
// a variadic argument before the callee can decline it, and an integer of
// 256 or more costs an allocation to box, so a trace call that is not
// guarded at its call site shows up as a difference. (The one-sided half,
// put + fence, is osc.TestTracingOffBoxesNothing.)
func TestTracingOffBoxesNothing(t *testing.T) {
	for _, size := range []int{4 << 10, 256 << 10} {
		buf := make([]byte, size)
		var objs [2]float64
		for i, tag := range []int{7, 70000} {
			objs[i], _ = hostCost(t, DefaultConfig(2, 1), 10, 100, exchange(buf, size, datatype.Byte, tag))
		}
		t.Logf("%d B exchange: %.2f objects at tag 7, %.2f at tag 70000", size, objs[0], objs[1])
		// One boxed argument per message is 2 per exchange; the runtime's own
		// bookkeeping moves the reading by a few hundredths between runs.
		if d := objs[0] - objs[1]; d < -0.5 || d > 0.5 {
			t.Errorf("%d B exchange allocates %.2f objects at tag 7 and %.2f at tag 70000", size, objs[0], objs[1])
		}
	}
}

// worldCost builds a world for cfg, runs main on every rank, and returns what
// both allocated and the virtual end time.
func worldCost(t *testing.T, cfg Config, main func(c *Comm)) (objs, bytes uint64, end time.Duration) {
	win := allocwin.New(t)
	win.Open()
	end = NewWorldOn(NewFabric(cfg), cfg).Run(main)
	win.Close()
	return win.Objects(), win.Bytes(), end
}

// ringExchange sends 64 B to the next rank and receives 64 B from the
// previous one: every rank uses two of its size-1 pairs.
func ringExchange(c *Comm) {
	out, in := make([]byte, 64), make([]byte, 64)
	next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
	must1(c.Sendrecv(out, 64, datatype.Byte, next, 1000, in, 64, datatype.Byte, prev, 1000))
}

// TestAllocsWorldBudget pins the host cost of a world that does nothing, in
// bytes and in objects. Bytes: an 8x2 world exports 240 pair ports of
// 384 KiB each (90 MiB), an empty run touches none of them, so what it costs
// is its records — 256 sendPorts of 80 B, 224 segments and their mappings,
// ranks, devices — 77 008 B measured for the first world in a process and
// 76 352 B for a later one, each held to its measurement plus 10 %
// (PERFORMANCE.md §19). Objects: every kind of record — ranks,
// devices, nodes, links, the segments, mappings and regions behind those
// ports, the names of each kind — is one slab for the whole world (see
// newWorld), so an empty world costs a fixed number of objects, and its ranks'
// processes start for nothing: no rank makes a closure, and a process takes
// its coroutine from the pool the engines give ended processes' coroutines
// back to. A later world finds one there: 42 objects measured, held to its
// former budget of 51 (44 measured plus 15 %). The first world in a process
// may find none (an empty world's ranks end one after another and pass one
// coroutine along) and make one cold coroutine: 13 objects
// (sim.TestAllocsColdCoroutine) and a goroutine record, 56 objects measured
// when the test runs alone, held to 64 = (42 + 13 + 1) plus 15 %. (It was 53,
// 46 measured plus 15 %, when the cold start was a resume channel and a
// goroutine record.) A run that exchanges messages adds what every rank does,
// so doubling the ranks must at most about double the objects: an
// O(ranks^2) count that came back would read 3.2 here.
func TestAllocsWorldBudget(t *testing.T) {
	for i, budget := range []struct{ objs, bytes uint64 }{{64, 84_700}, {51, 84_000}} {
		objs, bytes, _ := worldCost(t, DefaultConfig(8, 2), func(*Comm) {})
		t.Logf("empty 8x2 world %d: %d bytes, %d objects", i+1, bytes, objs)
		if bytes > budget.bytes {
			t.Errorf("empty 8x2 world %d allocated %d bytes, budget is %d", i+1, bytes, budget.bytes)
		}
		if objs > budget.objs && !allocwin.RaceEnabled {
			t.Errorf("empty 8x2 world %d allocated %d objects, budget is %d", i+1, objs, budget.objs)
		}
	}
	if allocwin.RaceEnabled {
		return // the detector allocates on its own
	}
	o32, _, _ := worldCost(t, DefaultConfig(32, 1), ringExchange)
	o64, _, _ := worldCost(t, DefaultConfig(64, 1), ringExchange)
	t.Logf("ring exchange: %d objects on 32x1, %d on 64x1, ratio %.2f", o32, o64, float64(o64)/float64(o32))
	if float64(o64) > 2.2*float64(o32) {
		t.Errorf("64x1 world allocated %d objects, 32x1 %d: more than 2.2x for twice the ranks, some per-pair record is an object again",
			o64, o32)
	}
}

// TestWorld512Builds: an ordinary 512-rank World is affordable. One ring
// exchange on 512x1 ends at the virtual instant it ends at on 64x1 (each
// rank talks to its two neighbours, whatever the size) within 9 520 objects,
// the first run in a process included. Every run makes the coroutines of the
// 448 ranks beyond the 64 the pool keeps, at 13 objects each
// (sim.TestAllocsColdCoroutine): a later run reads 6 933, so its records are
// 1 109. The first run also makes the runtime's records for 448 goroutines
// it never had, 1 346 objects: 8 279 measured, held to 9 520 = (1 109 +
// 448 x 13 + 1 346) plus 15 %. (The budget was 3 900, 3 352 measured plus
// 15 %, when each of those 448 ranks cost two objects, its resume channel
// among them.) Its bytes are the 262 144 pair records' and the 261 632
// remote ports' (54.0 MB measured), held to the measurement plus 10 %.
func TestWorld512Builds(t *testing.T) {
	if testing.Short() || allocwin.RaceEnabled {
		t.Skip("a 512-rank world takes ~55 MB; skipped under -short and -race")
	}
	_, _, end64 := worldCost(t, DefaultConfig(64, 1), ringExchange)
	objs, bytes, end := worldCost(t, DefaultConfig(512, 1), ringExchange)
	t.Logf("512x1 ring exchange: %d objects, %d bytes, ends at %v", objs, bytes, end)
	if end != end64 {
		t.Errorf("ring exchange ends at %v on 512x1 and %v on 64x1, want the same instant", end, end64)
	}
	if objs > 9520 {
		t.Errorf("512x1 world allocated %d objects, budget is 9 520", objs)
	}
	if bytes > 59_400_000 {
		t.Errorf("512x1 world allocated %d bytes, budget is 59.4 MB", bytes)
	}
}

// TestProcsPerWorld: a world starts only the processes its run needs. 64 B
// exchanges into contiguous buffers and a Barrier are served by event
// callbacks, so an 8x2 world doing them starts its 16 ranks and no device or
// DMA daemon; a 256 KiB rendezvous needs the receiver's device to block, and
// starts that daemon alone.
func TestProcsPerWorld(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		main func(c *Comm)
		want uint64
	}{
		{"8x2 short exchanges", DefaultConfig(8, 2), func(c *Comm) {
			out, in := make([]byte, 64), make([]byte, 64)
			r, n := c.Rank(), c.Size()
			must1(c.Sendrecv(out, 64, datatype.Byte, r^1, 1000, in, 64, datatype.Byte, r^1, 1000)) // inside the node
			must1(c.Sendrecv(out, 64, datatype.Byte, (r+2)%n, 1001, in, 64, datatype.Byte, (r+n-2)%n, 1001))
			must(c.Barrier())
		}, 16},
		{"2x1 rendezvous", DefaultConfig(2, 1), func(c *Comm) {
			buf := make([]byte, 256<<10)
			if c.Rank() == 0 {
				must(c.Send(buf, len(buf), datatype.Byte, 1, 1000))
			} else {
				must1(c.Recv(buf, len(buf), datatype.Byte, 0, 1000))
			}
		}, 3},
	} {
		f := NewFabric(tc.cfg)
		NewWorldOn(f, tc.cfg).Run(tc.main)
		if got := f.ProcsStarted(); got != tc.want {
			t.Errorf("%s: %d processes started, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPairStructSizes pins the per-pair and per-rank structs at their size
// before the scratch records: a world holds ranks² sendPorts and ports in one
// slab each, so a field added to one costs every world ranks² times the field
// (8 B more on sendPort takes the 256-record slab, with its 8 B malloc header,
// from the 21 760 B size class to 24 576 B: ~2.8 kB, ~4 % of an empty 8x2
// world). Per-transfer state
// belongs in the scratch records on the world's free lists, and a wait list in
// the parked processes (sim.Mutex and sim.Credits link their waiters through
// them). This is the object-size half of TestAllocsWorldBudget's claim. It
// also pins the Request every receive recycles at its 160 B size class: the
// fold a collective receive carries (reduceFold) fits inside it.
func TestPairStructSizes(t *testing.T) {
	for _, s := range []struct {
		name      string
		got, want uintptr
	}{
		{"sendPort", unsafe.Sizeof(sendPort{}), 80},
		{"sim.Credits", unsafe.Sizeof(sim.Credits{}), 24},
		{"sim.Mutex", unsafe.Sizeof(sim.Mutex{}), 16},
		{"port", unsafe.Sizeof(port{}), 24},
		{"sci.Segment", unsafe.Sizeof(sci.Segment{}), 48},
		{"rank", unsafe.Sizeof(rank{}), 120},
		{"sim.Proc", unsafe.Sizeof(sim.Proc{}), 64},     // one per rank and per started daemon
		{"sim.Future", unsafe.Sizeof(sim.Future{}), 56}, // in every flow, request, DMA request and store barrier
		{"Request", unsafe.Sizeof(Request{}), 160},      // every receive's; a fold adds nothing (reduceFold)
	} {
		if s.got > s.want {
			t.Errorf("%s is %d B, it was %d: per-transfer state goes in a scratch record, not on a per-pair struct",
				s.name, s.got, s.want)
		}
	}
}

// TestAllocsCollChoiceAllocFree pins the chooser's picks for Allreduce and
// Alltoall on an 8x2 communicator at no allocation: the families are a
// static table, and the evaluator's scratch is sized once per world, at
// its first priced call.
func TestAllocsCollChoiceAllocFree(t *testing.T) {
	if allocwin.RaceEnabled {
		t.Skip("allocation budgets are not checked under the race detector")
	}
	const ranks = 16
	win := allocwin.New(t)
	var picks [4]CollAlg
	Run(DefaultConfig(8, 2), func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		pick := func() {
			picks[0] = c.chooseCollAlg(collAllreduce, ranks, 4<<10, 4<<10)
			picks[1] = c.chooseCollAlg(collAllreduce, ranks, 2<<20, 2<<20)
			picks[2] = c.chooseCollAlg(collAlltoall, ranks, ranks*256, 256)
			picks[3] = c.chooseCollAlg(collAlltoall, ranks, ranks*(32<<10), 32<<10)
		}
		pick()
		win.Open()
		for i := 0; i < 10; i++ {
			pick()
		}
		win.Close()
	})
	t.Logf("picks %v: %d objects, %d B over 10 rounds", picks, win.Objects(), win.Bytes())
	if win.Objects() != 0 {
		t.Errorf("10 rounds of four picks allocated %d objects (%d B), want none", win.Objects(), win.Bytes())
	}
}
