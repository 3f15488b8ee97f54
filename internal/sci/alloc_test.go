package sci

import (
	"testing"
	"time"

	"scimpich/internal/allocwin"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// TestAllocsRemoteDeliveryCapture pins the posted-write delivery pipeline at
// zero allocations per operation: issuing a remote write captures the source
// bytes in a pooled buffer, schedules the arrival through the engine's event
// freelist, and lands + recycles everything in deliverArrive. Payloads stay
// under flowThreshold so the test exercises the PIO fast path rather than the
// flow network.
func TestAllocsRemoteDeliveryCapture(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1 << 20)
	src := fill(1024)
	word := fill(8)
	drain := ic.Cfg.PIOWriteLatency + time.Microsecond
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		cases := []struct {
			name string
			fn   func()
		}{
			// Each op sleeps past the wire latency so its delivery lands and
			// returns the pooled buffer before the next iteration grabs one.
			{"WriteStream", func() {
				must(m.WriteStream(p, 0, src, 0))
				p.Sleep(drain)
			}},
			{"WritePut-strided", func() {
				must(m.WritePut(p, 0, src, 64, 128))
				p.Sleep(drain)
			}},
			{"WritePut-dense", func() {
				must(m.WritePut(p, 0, src, 64, 64))
				p.Sleep(drain)
			}},
			{"WriteWord", func() {
				must(m.WriteWord(p, 4096, word))
				p.Sleep(drain)
			}},
		}
		for _, tc := range cases {
			// Warm the buffer pool, delivery pool and event freelist.
			for i := 0; i < 8; i++ {
				tc.fn()
			}
			if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
				t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
			}
		}
	})
	e.Run()
}

// TestAllocsStoreBarrierDrained checks that a store barrier over an already
// drained node (no posted writes in flight) does not allocate: the shared
// barrier future is only created when there is something to wait for.
func TestAllocsStoreBarrierDrained(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(4096)
	src := fill(256)
	drain := ic.Cfg.PIOWriteLatency + time.Microsecond
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		fn := func() {
			must(m.WriteStream(p, 0, src, 0))
			p.Sleep(drain)
			ic.Node(0).StoreBarrier(p)
		}
		for i := 0; i < 8; i++ {
			fn()
		}
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("write+drained barrier: %v allocs/op, want 0", n)
		}
	})
	e.Run()
}

// TestAllocsStoreBarrierWaiting: two processes of one node post a write and
// enter the store barrier at the same instants, so both wait on the node's
// one embedded future while the writes are on the wire. Each round the
// arrival that drains the count wakes both at that instant and re-arms the
// future for the next round, and nothing is allocated: no future per
// barrier, no list for the second waiter after the first round.
func TestAllocsStoreBarrierWaiting(t *testing.T) {
	const warm, rounds = 8, 100
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(4096)
	src := fill(256)
	var woke [2][]time.Duration
	win := allocwin.New(t)
	for i := 0; i < 2; i++ {
		i := i
		e.Go("writer", func(p *sim.Proc) {
			m := ic.Node(0).MustImport(1, seg.ID())
			woke[i] = make([]time.Duration, 0, warm+rounds)
			for r := 0; r < warm+rounds; r++ {
				if i == 0 && r == warm {
					win.Open()
				}
				must(m.WriteStream(p, int64(i)*1024, src, 0))
				entered := p.Now()
				ic.Node(0).StoreBarrier(p)
				if p.Now()-entered <= storeBarrierLatency {
					t.Errorf("round %d: writer %d did not have to wait in the barrier", r, i)
				}
				woke[i] = append(woke[i], p.Now())
				p.Sleep(time.Microsecond)
			}
			if i == 0 {
				win.Close()
			}
		})
	}
	e.Run()
	for r := range woke[0] {
		if woke[0][r] != woke[1][r] {
			t.Fatalf("round %d: the waiters left the barrier at %v and %v, want the same instant", r, woke[0][r], woke[1][r])
		}
	}
	if got := ic.Node(0).Snapshot().StoreBarriers; got != 2*(warm+rounds) {
		t.Errorf("%d store barriers counted, want %d", got, 2*(warm+rounds))
	}
	if n := win.Objects(); n > 2 && !allocwin.RaceEnabled { // ReadMemStats itself may allocate
		t.Errorf("%d allocations in %d rounds of two waiting store barriers, want 0", n, rounds)
	}
}

// TestAllocsBlockWriterAndDMARequest: a block-write session and a
// scatter-gather DMA transfer take their writer and their request from the
// node's free lists and hand them back (Flush, Wait), so neither allocates
// in steady state.
func TestAllocsBlockWriterAndDMARequest(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1 << 16)
	src := fill(4096)
	descs := []pack.Descriptor{{SrcOff: 0, DstOff: 0, Len: 2048, Count: 1}, {SrcOff: 2048, DstOff: 4096, Len: 2048, Count: 1}}
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		session := func() {
			w := m.NewBlockWriter(p, 8192)
			w.Write(0, src[:1024])
			w.Write(1024, src[1024:2048])
			if err := w.Flush(); err != nil {
				t.Error(err)
			}
			ic.Node(0).StoreBarrier(p)
		}
		sg := func() {
			if err := m.DMAWriteSG(p, 0, src, descs).Wait(p); err != nil {
				t.Error(err)
			}
		}
		for _, c := range []struct {
			name string
			fn   func()
		}{{"BlockWriter session", session}, {"DMAWriteSG + Wait", sg}} {
			for i := 0; i < 8; i++ {
				c.fn()
			}
			if n := testing.AllocsPerRun(50, c.fn); n != 0 {
				t.Errorf("%s: %v allocs/op, want 0", c.name, n)
			}
		}
	})
	e.Run()
}
