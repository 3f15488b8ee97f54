package sim

import (
	"slices"
	"testing"
	"time"
)

func TestFuture(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	var got any
	var at time.Duration
	e.Go("waiter", func(p *Proc) {
		got = p.Await(f)
		at = p.Now()
	})
	e.Go("completer", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		f.Complete(42)
	})
	e.Run()
	if got != 42 {
		t.Errorf("await value = %v, want 42", got)
	}
	if at != 3*time.Microsecond {
		t.Errorf("woke at %v, want 3µs", at)
	}
}

func TestFutureAlreadyDone(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	f.Complete("x")
	var got any
	e.Go("waiter", func(p *Proc) { got = p.Await(f) })
	e.Run()
	if got != "x" {
		t.Errorf("await value = %v, want x", got)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	f := NewFuture()
	f.Complete(nil)
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	f.Complete(nil)
}

// TestFutureRearm: a future that is completed and re-armed in the same
// breath (a completion that carries no value) wakes the processes waiting at
// that moment, in arrival order, and makes them wait again for the next
// completion; after the first round the second waiter costs no allocation.
func TestFutureRearm(t *testing.T) {
	e := NewEngine()
	var f Future
	var woke []string
	var allocs float64
	for _, name := range []string{"a", "b"} {
		name := name
		e.Go(name, func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Await(&f)
				woke = append(woke, name+"@"+p.Now().String())
			}
			// Eleven more rounds: AllocsPerRun warms up with one.
			if name == "a" {
				allocs = testing.AllocsPerRun(10, func() { p.Await(&f) })
				return
			}
			for i := 0; i < 11; i++ {
				p.Await(&f)
			}
		})
	}
	e.Go("completer", func(p *Proc) {
		for i := 0; i < 13; i++ {
			p.Sleep(10 * time.Microsecond)
			f.Complete(nil)
			f.Rearm()
		}
	})
	e.Run()
	if want := []string{"a@10µs", "b@10µs", "a@20µs", "b@20µs"}; !slices.Equal(woke, want) {
		t.Errorf("woke %v, want %v", woke, want)
	}
	if allocs != 0 {
		t.Errorf("a round of two waiters on a re-armed future allocates %v objects, want 0", allocs)
	}
	if f.Done() {
		t.Error("a re-armed future reports Done")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-arming an incomplete future did not panic")
		}
	}()
	f.Rearm()
}

func TestUnbufferedChanRendezvous(t *testing.T) {
	e := NewEngine()
	c := NewChan(0)
	var sendDone, recvVal time.Duration
	var got any
	e.Go("sender", func(p *Proc) {
		p.Send(c, 7)
		sendDone = p.Now()
	})
	e.Go("receiver", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		got = p.Recv(c)
		recvVal = p.Now()
	})
	e.Run()
	if got != 7 {
		t.Errorf("received %v, want 7", got)
	}
	if sendDone != 10*time.Microsecond || recvVal != 10*time.Microsecond {
		t.Errorf("send done %v recv %v, want both 10µs", sendDone, recvVal)
	}
}

func TestBufferedChan(t *testing.T) {
	e := NewEngine()
	c := NewChan(2)
	var sends []time.Duration
	var recvs []any
	e.Go("sender", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Send(c, i)
			sends = append(sends, p.Now())
		}
	})
	e.Go("receiver", func(p *Proc) {
		p.Sleep(time.Microsecond)
		for i := 0; i < 4; i++ {
			recvs = append(recvs, p.Recv(c))
			p.Sleep(time.Microsecond)
		}
	})
	e.Run()
	for i, v := range recvs {
		if v != i {
			t.Fatalf("recvs = %v, want [0 1 2 3]", recvs)
		}
	}
	// First two sends fit the buffer at t=0; the rest block until drained.
	if sends[0] != 0 || sends[1] != 0 {
		t.Errorf("buffered sends at %v, %v; want 0, 0", sends[0], sends[1])
	}
	if sends[2] != time.Microsecond {
		t.Errorf("third send completed at %v, want 1µs", sends[2])
	}
}

func TestChanFIFOAcrossManyProcs(t *testing.T) {
	e := NewEngine()
	c := NewChan(0)
	var got []any
	for i := 0; i < 5; i++ {
		i := i
		e.Go("sender", func(p *Proc) { p.Send(c, i) })
	}
	e.Go("receiver", func(p *Proc) {
		p.Sleep(time.Microsecond)
		for i := 0; i < 5; i++ {
			got = append(got, p.Recv(c))
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want FIFO [0..4]", got)
		}
	}
}

func TestTryRecv(t *testing.T) {
	e := NewEngine()
	c := NewChan(1)
	var ok1, ok2 bool
	e.Go("p", func(p *Proc) {
		_, ok1 = p.TryRecv(c)
		p.Send(c, 1)
		_, ok2 = p.TryRecv(c)
	})
	e.Run()
	if ok1 || !ok2 {
		t.Fatalf("TryRecv = %v, %v; want false, true", ok1, ok2)
	}
}

func TestMutexExcludesAndIsFIFO(t *testing.T) {
	e := NewEngine()
	m := &Mutex{}
	var order []string
	hold := func(name string, delay, inside time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(delay)
			p.Lock(m)
			order = append(order, name)
			p.Sleep(inside)
			p.Unlock(m)
		})
	}
	// Four waiters queue behind a, spawned out of their arrival order.
	hold("a", 0, 10*time.Microsecond)
	hold("b", time.Microsecond, time.Microsecond)
	hold("e", 4*time.Microsecond, time.Microsecond)
	hold("c", 2*time.Microsecond, time.Microsecond)
	hold("d", 3*time.Microsecond, time.Microsecond)
	e.Run()
	if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(order, want) {
		t.Fatalf("lock order = %v, want %v", order, want)
	}
}

// TestCreditsMatchPreloadedChan drives a Credits and a Chan pre-loaded with
// the same tokens through one schedule of takers and releases; the slots must
// be handed out in the same order to the same processes, for a few slots and
// for as many as a Credits holds.
func TestCreditsMatchPreloadedChan(t *testing.T) {
	for _, slots := range []int{3, MaxCredits} {
		takers := 2*slots + 1
		run := func(take func(*Proc) int, release func(int)) []int {
			e := NewEngine()
			var order []int
			for i := 0; i < takers; i++ {
				e.Go("taker", func(p *Proc) {
					p.Sleep(time.Duration(i%3) * time.Microsecond)
					slot := take(p)
					order = append(order, i, slot)
					p.Sleep(time.Duration(1+slot) * time.Microsecond)
					release(slot)
				})
			}
			e.Run()
			return order
		}
		var cr Credits
		cr.Init(slots)
		ch := NewChan(slots + 1)
		for i := 0; i < slots; i++ {
			Post(ch, i)
		}
		got := run(func(p *Proc) int { return p.Acquire(&cr) }, cr.Release)
		want := run(func(p *Proc) int { return p.Recv(ch).(int) }, func(s int) { Post(ch, s) })
		if len(got) != 2*takers || !slices.Equal(got, want) {
			t.Errorf("%d slots: credits handed out (taker, slot) %v, channel %v", slots, got, want)
		}
	}
}

// TestDeepWaitQueues queues a few thousand processes behind the holder of a
// Mutex and of a one-slot Credits, spawned in the reverse of their arrival
// order; each primitive must serve them in arrival order.
func TestDeepWaitQueues(t *testing.T) {
	const n = 2000
	var m Mutex
	var cr Credits
	cr.Init(1)
	prims := []struct {
		name          string
		take, release func(*Proc)
	}{
		{"mutex", func(p *Proc) { p.Lock(&m) }, func(p *Proc) { p.Unlock(&m) }},
		{"credits", func(p *Proc) { p.Acquire(&cr) }, func(*Proc) { cr.Release(0) }},
	}
	for _, prim := range prims {
		e := NewEngine()
		var order []int
		e.Go("holder", func(p *Proc) {
			prim.take(p)
			p.Sleep((n + 1) * time.Nanosecond)
			prim.release(p)
		})
		for i := n - 1; i >= 0; i-- {
			e.Go("waiter", func(p *Proc) {
				p.Sleep(time.Duration(i+1) * time.Nanosecond)
				prim.take(p)
				order = append(order, i)
				prim.release(p)
			})
		}
		e.Run()
		if len(order) != n {
			t.Fatalf("%s: %d of %d waiters served", prim.name, len(order), n)
		}
		for i, w := range order {
			if w != i {
				t.Fatalf("%s: waiter %d served %dth, want arrival order", prim.name, w, i)
			}
		}
	}
}

func TestCreditsOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("releasing more credits than slots did not panic")
		}
	}()
	var cr Credits
	cr.Init(2)
	cr.Release(0)
}

func TestCreditsInitAboveMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Init(%d) did not panic", MaxCredits+1)
		}
	}()
	var cr Credits
	cr.Init(MaxCredits + 1)
}

// TestWaitLeavesNoStaleHandoff: a process that queued on a Mutex and then on
// Credits — both linked through its hand-off slot — leaves the slot empty,
// and a later blocking Recv and RecvTimeout hand it the values sent, not a
// leftover link or slot.
func TestWaitLeavesNoStaleHandoff(t *testing.T) {
	e := NewEngine()
	var m Mutex
	var cr Credits
	cr.Init(1)
	c := NewChan(0)
	e.Go("holder", func(p *Proc) {
		p.Lock(&m)
		slot := p.Acquire(&cr)
		p.Sleep(2 * time.Microsecond)
		p.Unlock(&m)
		p.Sleep(2 * time.Microsecond)
		cr.Release(slot)
		p.Sleep(2 * time.Microsecond)
		p.Send(c, "first")
		p.Sleep(2 * time.Microsecond)
		p.Send(c, "second")
	})
	for _, name := range []string{"waiter", "behind"} {
		e.Go(name, func(p *Proc) {
			p.Sleep(time.Microsecond)
			p.Lock(&m)
			if p.handoff != nil {
				t.Errorf("%s: hand-off slot holds %v after Lock", name, p.handoff)
			}
			p.Unlock(&m)
			slot := p.Acquire(&cr)
			if p.handoff != nil {
				t.Errorf("%s: hand-off slot holds %v after Acquire", name, p.handoff)
			}
			if slot != 0 {
				t.Errorf("%s: acquired slot %d, want 0", name, slot)
			}
			cr.Release(slot)
			if name != "waiter" {
				return
			}
			if v := p.Recv(c); v != "first" {
				t.Errorf("Recv after the waits = %v, want first", v)
			}
			if v, ok := p.RecvTimeout(c, time.Millisecond); !ok || v != "second" {
				t.Errorf("RecvTimeout after the waits = %v, %v, want second, true", v, ok)
			}
		})
	}
	e.Run()
}

func TestUnlockUnlockedPanics(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unlock of unlocked mutex did not panic")
			}
		}()
		p.Unlock(&Mutex{})
	})
	e.Run()
}
