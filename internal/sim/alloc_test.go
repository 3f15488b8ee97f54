package sim

import (
	"testing"
	"time"
	"unsafe"

	"scimpich/internal/allocwin"
)

// TestStaleTimerCancelIsNoop pins the generation check on recycled events: a
// Timer held across its event's firing or its cancellation must not cancel
// the event that later reuses the same freelist slot, and a second Cancel
// counts nothing.
func TestStaleTimerCancelIsNoop(t *testing.T) {
	e := NewEngine()
	stale := e.After(time.Millisecond, func() {})
	e.Run() // fires and recycles the event into the freelist

	fired := false
	fresh := e.After(time.Millisecond, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatalf("freelist should have reused the recycled event slot")
	}
	stale.Cancel() // stale generation: must be a no-op
	e.Run()
	if !fired {
		t.Fatal("stale Timer.Cancel canceled an unrelated recycled event")
	}

	// A live cancel on the same slot still works, and takes the event out of
	// the queue at once.
	fired = false
	live := e.After(time.Millisecond, func() { fired = true })
	live.Cancel()
	if len(e.queue) != 0 {
		t.Fatalf("%d events queued after the only one was cancelled", len(e.queue))
	}

	// The cancelled slot is reused in turn: cancelling it a second time
	// through the old handle must not touch the new event.
	reused := e.After(time.Millisecond, func() { fired = true })
	if reused.ev != live.ev {
		t.Fatalf("freelist should have reused the cancelled event slot")
	}
	live.Cancel()
	e.Run()
	if !fired {
		t.Fatal("a second Cancel through a cancelled Timer canceled the event that reused its slot")
	}
	if got := e.TimersCancelled(); got != 1 {
		t.Errorf("TimersCancelled = %d, want 1", got)
	}
}

// TestAllocsEventBlocks: the queue makes events in blocks, each as large as
// everything made before it and at least 16, and sizes the freelist and the
// heap with each block to hold every event made: however many of them come
// back, recycle never moves the freelist to a larger array, and however many
// are queued, schedule never moves the heap.
func TestAllocsEventBlocks(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	for _, c := range []struct{ queued, made int }{{1, 16}, {16, 16}, {17, 32}, {100, 128}} {
		for i := 0; i < c.queued; i++ {
			e.AfterCall(time.Duration(i), fn, nil)
			if cap(e.queue) != e.made {
				t.Fatalf("%d events queued: the heap holds %d, %d were made", i+1, cap(e.queue), e.made)
			}
		}
		if e.made != c.made || cap(e.free) != c.made {
			t.Errorf("%d events queued: %d made, freelist holds %d; want %d and %d", c.queued, e.made, cap(e.free), c.made, c.made)
		}
		free := unsafe.SliceData(e.free)
		e.Run()
		if unsafe.SliceData(e.free) != free || len(e.free) != c.made {
			t.Errorf("%d events fired: the freelist moved, or holds %d of the %d events made", c.queued, len(e.free), c.made)
		}
	}
}

// TestAllocsProcBlocks: a host makes its Procs in blocks like its events, and
// grows the registry with each block, so spawning 64 processes that never
// run costs three blocks (16, 16, 32) and three registry arrays, not 64
// objects.
func TestAllocsProcBlocks(t *testing.T) {
	e := NewEngine()
	body := func(*Proc) { t.Error("the body of a daemon nothing woke ran") }
	win := allocwin.New(t)
	win.Open()
	for i := 0; i < 64; i++ {
		e.GoDaemon("idle", body)
	}
	win.Close()
	t.Logf("64 spawns: %d objects", win.Objects())
	if win.Objects() > 8 && !allocwin.RaceEnabled {
		t.Errorf("64 spawns allocated %d objects, want at most 8: a Proc is an object of its own again", win.Objects())
	}
	e.Run()
}

// TestTakeFreeRefillsInBlocks: an empty free list is refilled with a block of
// as many records as it has capacity for, so an owner that sizes the list
// for the records it has in use at once pays one allocation for them, and
// taking them all back never moves the list.
func TestTakeFreeRefillsInBlocks(t *testing.T) {
	type rec struct{ a, b int64 }
	free := make([]*rec, 0, 16)
	taken := make([]*rec, 0, 16)
	win := allocwin.New(t)
	win.Open()
	for i := 0; i < 16; i++ {
		taken = append(taken, TakeFree(&free))
	}
	win.Close()
	if win.Objects() != 1 && !allocwin.RaceEnabled {
		t.Errorf("16 takes from a list sized for 16 allocated %d objects, want the one block", win.Objects())
	}
	list := unsafe.SliceData(free)
	free = append(free, taken...)
	if unsafe.SliceData(free) != list {
		t.Error("taking back the 16 records moved the list")
	}
	if r := TakeFree(&free); *r != (rec{}) || len(free) != 15 {
		t.Errorf("a take from the full list: record %+v, %d left; want a zero record and 15", *r, len(free))
	}
}

// TestAllocsSleepSteadyState pins the yielding sleep at zero allocations:
// Sleep schedules the top-level dispatchProc with the proc as its argument,
// on the engine's event freelist. An event held pending at the instant of
// the wake keeps every sleep from being elided.
func TestAllocsSleepSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	e.Go("sleeper", func(p *Proc) {
		sleep := func() {
			e.AfterCall(time.Microsecond, fn, nil)
			p.Sleep(time.Microsecond)
		}
		for i := 0; i < 4; i++ { // warm the freelist
			sleep()
		}
		switches := e.ProcSwitches()
		if n := testing.AllocsPerRun(100, sleep); n != 0 {
			t.Errorf("Sleep: %v allocs/op, want 0", n)
		}
		if got := e.ProcSwitches() - switches; got != 101 {
			t.Errorf("%d switches over 101 sleeps: some did not yield", got)
		}
	})
	e.Run()
}

// TestAllocsAfterCallSteadyState pins AfterCall — the closure-free event
// entry used by the PIO delivery pipeline — at zero allocations per
// scheduled event once the freelist is warm.
func TestAllocsAfterCallSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func(any) {}
	e.Go("scheduler", func(p *Proc) {
		for i := 0; i < 4; i++ {
			e.AfterCall(0, fn, nil)
			p.Sleep(time.Microsecond)
		}
		if n := testing.AllocsPerRun(100, func() {
			e.AfterCall(0, fn, nil)
			p.Sleep(time.Microsecond)
		}); n != 0 {
			t.Errorf("AfterCall+drain: %v allocs/op, want 0", n)
		}
	})
	e.Run()
}

// TestAllocsRecvTimeoutSteadyState pins the timed waits at zero allocations
// when they are satisfied before expiry: the watchdog is a top-level function
// scheduled through AfterCall, and what it needs — the channel or future,
// and the mark of an expiry — rides in the Proc's hand-off slot, so a Proc
// stays in the 80-byte size class (a world holds one per rank). A wait that
// expires leaves nothing behind for the next one.
func TestAllocsRecvTimeoutSteadyState(t *testing.T) {
	if size := unsafe.Sizeof(Proc{}); size > 80 {
		t.Errorf("a Proc takes %d bytes, want at most 80", size)
	}
	e := NewEngine()
	c := NewChan(0)
	var f Future
	post := func(any) { Post(c, c) }
	complete := func(any) { f.Complete(nil) }
	e.Go("waiter", func(p *Proc) {
		recv := func() {
			e.AfterCall(time.Microsecond, post, nil)
			if _, ok := p.RecvTimeout(c, time.Millisecond); !ok {
				t.Error("RecvTimeout expired before the value posted 1us later")
			}
		}
		await := func() {
			e.AfterCall(time.Microsecond, complete, nil)
			if _, ok := p.AwaitTimeout(&f, time.Millisecond); !ok {
				t.Error("AwaitTimeout expired before the completion 1us later")
			}
			f.Rearm()
		}
		for i := 0; i < 4; i++ { // warm the freelist and the receiver FIFO
			recv()
			await()
		}
		if n := testing.AllocsPerRun(100, recv); n != 0 {
			t.Errorf("RecvTimeout satisfied before expiry: %v allocs/op, want 0", n)
		}
		if n := testing.AllocsPerRun(100, await); n != 0 {
			t.Errorf("AwaitTimeout satisfied before expiry: %v allocs/op, want 0", n)
		}
		if _, ok := p.RecvTimeout(c, time.Microsecond); ok {
			t.Error("RecvTimeout on a silent channel did not expire")
		}
		if _, ok := p.AwaitTimeout(&f, time.Microsecond); ok {
			t.Error("AwaitTimeout on an incomplete future did not expire")
		}
		recv()
		await()
	})
	e.Run()
}

// TestAllocsContendedSync: three processes that each round take a contended
// Mutex and then block for the one slot of a Credits allocate nothing per
// round. A wait list is linked through the parked processes' hand-off slots,
// and the slot a Release hands over is boxed from the runtime's table of
// small integers.
func TestAllocsContendedSync(t *testing.T) {
	const warm, rounds = 4, 100
	win := allocwin.New(t)
	e := NewEngine()
	var m Mutex
	var cr Credits
	cr.Init(1)
	for i := 0; i < 3; i++ {
		e.Go("contender", func(p *Proc) {
			for r := 0; r < warm+rounds; r++ {
				if i == 0 && r == warm {
					win.Open()
				}
				p.Lock(&m)
				p.Sleep(time.Microsecond)
				p.Unlock(&m)
				slot := p.Acquire(&cr)
				p.Sleep(time.Microsecond)
				cr.Release(slot)
			}
			if i == 0 {
				win.Close()
			}
		})
	}
	e.Run()
	perRound := float64(win.Objects()) / rounds
	t.Logf("contended Lock/Unlock and Acquire/Release: %.2f objects per round", perRound)
	if win.Objects() != 0 && !allocwin.RaceEnabled {
		t.Errorf("contended sync allocated %d objects in %d rounds (%.2f per round), want none",
			win.Objects(), rounds, perRound)
	}
}
