package sim

import (
	"strings"
	"testing"
	"time"
)

func TestEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run ended at %v, want 0", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(20*time.Nanosecond, func() { order = append(order, 2) })
	e.At(10*time.Nanosecond, func() { order = append(order, 1) })
	e.At(20*time.Nanosecond, func() { order = append(order, 3) }) // same time: seq order
	e.At(30*time.Nanosecond, func() { order = append(order, 4) })
	end := e.Run()
	if end != 30*time.Nanosecond {
		t.Errorf("end time = %v, want 30ns", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(time.Microsecond, func() { fired = true })
	e.After(0, func() { tm.Cancel() })
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(time.Microsecond, func() {})
	})
	e.Run()
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at1, at2 time.Duration
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		at1 = p.Now()
		p.Sleep(7 * time.Microsecond)
		at2 = p.Now()
	})
	e.Run()
	if at1 != 5*time.Microsecond || at2 != 12*time.Microsecond {
		t.Fatalf("clock after sleeps = %v, %v; want 5µs, 12µs", at1, at2)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(time.Microsecond)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	if len(first) != 9 {
		t.Fatalf("trace length = %d, want 9", len(first))
	}
	for i := 0; i < 50; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged at step %d: %v vs %v", i, j, first, again)
			}
		}
	}
}

func TestRateDuration(t *testing.T) {
	cases := []struct {
		n    int64
		rate float64
		want time.Duration
	}{
		{0, 100, 0},
		{-5, 100, 0},
		{100, 100e6, time.Microsecond},
		{1, 1e9, time.Nanosecond},
		{1, 2e9, time.Nanosecond}, // rounds up
	}
	for _, c := range cases {
		if got := RateDuration(c.n, c.rate); got != c.want {
			t.Errorf("RateDuration(%d, %g) = %v, want %v", c.n, c.rate, got, c.want)
		}
	}
}

func TestRateDurationPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RateDuration with zero rate did not panic")
		}
	}()
	RateDuration(10, 0)
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("deadlocked run did not panic")
		}
	}()
	e := NewEngine()
	m := &Mutex{}
	e.Go("holder", func(p *Proc) {
		p.Lock(m)
		// never unlocks
	})
	e.Go("blocked", func(p *Proc) {
		p.Sleep(time.Microsecond)
		p.Lock(m)
	})
	e.Run()
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 5 {
			e.Stop()
		}
		e.After(time.Microsecond, tick)
	}
	e.After(0, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("ticked %d times, want 5", count)
	}
}

func TestGoDaemonDoesNotDeadlockOnDrain(t *testing.T) {
	e := NewEngine()
	ch := NewChan(4)
	served := 0
	e.GoDaemon("server", func(p *Proc) {
		for {
			p.Recv(ch)
			served++
		}
	}).Wake()
	e.Go("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Send(ch, i)
			p.Sleep(time.Microsecond)
		}
	})
	e.Run() // must return despite the daemon staying blocked
	if served != 3 {
		t.Fatalf("daemon served %d, want 3", served)
	}
}

func TestPostFromEventContext(t *testing.T) {
	e := NewEngine()
	ch := NewChan(0)
	var got []any
	e.Go("receiver", func(p *Proc) {
		got = append(got, p.Recv(ch))
		got = append(got, p.Recv(ch))
	})
	// Post from timer callbacks (no process context), including beyond the
	// nominal capacity.
	e.After(time.Microsecond, func() { Post(ch, "a") })
	e.After(2*time.Microsecond, func() { Post(ch, "b") })
	e.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
}

func TestPostBuffersBeyondCapacity(t *testing.T) {
	e := NewEngine()
	ch := NewChan(1)
	for i := 0; i < 5; i++ {
		Post(ch, i)
	}
	if ch.Len() != 5 {
		t.Fatalf("posted 5, buffered %d", ch.Len())
	}
	var sum int
	e.Go("drain", func(p *Proc) {
		for i := 0; i < 5; i++ {
			sum += p.Recv(ch).(int)
		}
	})
	e.Run()
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

// TestAwaitAll: a process that awaits several futures in turn, completed in
// the reverse order, is released when the slowest completes; the ones already
// done by then return at once.
func TestAwaitAll(t *testing.T) {
	e := NewEngine()
	futs := []*Future{NewFuture(), NewFuture(), NewFuture()}
	var done time.Duration
	e.Go("waiter", func(p *Proc) {
		for _, f := range futs {
			p.Await(f)
		}
		done = p.Now()
	})
	for i, f := range futs {
		f := f
		e.After(time.Duration(3-i)*time.Microsecond, func() { f.Complete(nil) })
	}
	e.Run()
	if done != 3*time.Microsecond {
		t.Fatalf("released at %v, want when the slowest future completed (3µs)", done)
	}
}

func TestPanicInProcSurfacesInRun(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("proc panic did not surface in Run")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v (%T) is not an error", r, r)
		}
		if s := err.Error(); !strings.Contains(s, "kaboom") || !strings.Contains(s, `"boom"`) {
			t.Fatalf("panic message %q lacks context", s)
		}
	}()
	e.Run()
}

// TestQueueSelfMetrics: a cancelled timer counts once, whether the engine
// has already dropped it from the heap or it still waits there for its
// instant, and the heap's high-water mark includes it while it does.
func TestQueueSelfMetrics(t *testing.T) {
	e := NewEngine()
	soon := e.After(time.Millisecond, func() { t.Error("cancelled timer fired") })
	far := e.After(time.Hour, func() { t.Error("cancelled timer fired") })
	e.After(2*time.Millisecond, e.Stop)
	soon.Cancel()
	soon.Cancel()
	far.Cancel()
	e.Run()
	if got := e.TimersCancelled(); got != 2 {
		t.Errorf("TimersCancelled = %d, want 2 (one dropped on the way, one still queued)", got)
	}
	if got := e.HeapDepthMax(); got != 3 {
		t.Errorf("HeapDepthMax = %d, want 3", got)
	}
}
