package sim

import (
	"slices"
	"testing"
	"time"
)

// TestFIFOKeepsOrderAndCapacity: a queue that fills and drains at a steady
// rate wraps around one buffer instead of growing, and removing from the
// middle keeps the order of the rest.
func TestFIFOKeepsOrderAndCapacity(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for q.Len() > 1 {
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	if len(q.buf) != 4 {
		t.Errorf("buffer grew to %d slots for at most 4 queued items", len(q.buf))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i := 0; i < 9; i++ { // grows across a wrapped head
		q.Push(i)
	}
	q.removeAt(0)
	q.removeAt(3) // the item 4
	q.removeAt(q.Len() - 1)
	var got []int
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	if want := []int{1, 2, 3, 5, 6, 7}; !slices.Equal(got, want) {
		t.Errorf("after removals the queue held %v, want %v", got, want)
	}
}

// TestAllocsChanHandoffSteadyState pins a blocking receive served by Post —
// the way a control reply reaches a waiting sender — and a future awaited by
// one process at zero allocations: the hand-off slot is in the Proc, the
// first waiter is inline in the Future.
func TestAllocsChanHandoffSteadyState(t *testing.T) {
	e := NewEngine()
	c := NewChan(1)
	post := func(any) { Post(c, c) }
	complete := func(f any) { f.(*Future).Complete(nil) }
	e.Go("receiver", func(p *Proc) {
		f := NewFuture()
		round := func() {
			e.AfterCall(time.Microsecond, post, nil)
			if p.Recv(c) != any(c) {
				t.Error("Recv returned a value other than the one posted")
			}
			*f = Future{}
			e.AfterCall(time.Microsecond, complete, f)
			p.Await(f)
		}
		for i := 0; i < 4; i++ {
			round()
		}
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("blocking Recv + Await: %v allocs/op, want 0", n)
		}
	})
	e.Run()
}

// TestFutureWaitersWakeInArrivalOrder: the inline first-waiter slot must not
// let a late arrival overtake: after the first waiter times out, a new one
// queues behind those already waiting.
func TestFutureWaitersWakeInArrivalOrder(t *testing.T) {
	e := NewEngine()
	f := NewFuture()
	var order []string
	wait := func(name string, after time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(after)
			p.Await(f)
			order = append(order, name)
		})
	}
	e.Go("impatient", func(p *Proc) {
		if _, ok := p.AwaitTimeout(f, 5*time.Microsecond); ok {
			t.Error("AwaitTimeout reported completion before Complete")
		}
		order = append(order, "impatient")
	})
	wait("second", 1*time.Microsecond)
	wait("third", 2*time.Microsecond)
	wait("late", 7*time.Microsecond) // arrives after the inline slot was vacated
	e.After(10*time.Microsecond, func() { f.Complete(nil) })
	e.Run()
	if want := []string{"impatient", "second", "third", "late"}; !slices.Equal(order, want) {
		t.Errorf("woke in order %v, want %v", order, want)
	}
}

// TestResumeContinuesParkedProcInsideTheEvent: Resume hands control to a
// parked process within the current event — no further event, same instant
// — and counts as one process switch. A sleep of the resumed process is
// never elided, even with nothing else queued: the callback that resumed it
// continues at the old instant.
func TestResumeContinuesParkedProcInsideTheEvent(t *testing.T) {
	e := NewEngine()
	var log []string
	server := e.GoDaemon("server", func(p *Proc) {
		for {
			p.Park()
			log = append(log, "served at "+p.Now().String())
			p.Sleep(time.Microsecond)
			log = append(log, "done at "+p.Now().String())
		}
	})
	server.Wake() // runs the body into its first Park
	e.After(5*time.Microsecond, func() {
		events, switches := e.Events(), e.ProcSwitches()
		log = append(log, "request")
		server.Resume()
		log = append(log, "callback continues")
		if e.Events() != events || e.ProcSwitches() != switches+1 {
			t.Errorf("Resume took %d events and %d switches, want 0 and 1",
				e.Events()-events, e.ProcSwitches()-switches)
		}
	})
	e.Run()
	want := []string{"request", "served at 5µs", "callback continues", "done at 6µs"}
	if !slices.Equal(log, want) {
		t.Errorf("got %v, want %v", log, want)
	}
	if got := e.SleepsElided(); got != 0 {
		t.Errorf("%d sleeps elided under Resume, want 0", got)
	}
}

// TestResumeFromProcessPanics: only an event callback may resume.
func TestResumeFromProcessPanics(t *testing.T) {
	e := NewEngine()
	server := e.GoDaemon("server", func(p *Proc) { p.Park() })
	e.Go("client", func(p *Proc) {
		p.Sleep(time.Microsecond)
		defer func() {
			if recover() == nil {
				t.Error("Resume from a process body did not panic")
			}
		}()
		server.Resume()
	})
	e.Run()
}

// TestPermuteTiesReordersOnlySameInstantEvents: under a tie seed events
// still fire in time order, each exactly once, and same-instant events fire
// in an order that depends on the seed alone.
func TestPermuteTiesReordersOnlySameInstantEvents(t *testing.T) {
	run := func(seed uint64) []int {
		e := NewEngine()
		e.PermuteTies(seed)
		var fired []int
		for i := 0; i < 32; i++ {
			e.AfterCall(time.Duration(i/16)*time.Microsecond, func(arg any) { fired = append(fired, arg.(int)) }, i)
		}
		e.Run()
		return fired
	}
	canonical := run(0)
	if !slices.IsSorted(canonical) {
		t.Fatalf("without a seed events fire in scheduling order, got %v", canonical)
	}
	a, b := run(3), run(3)
	if !slices.Equal(a, b) {
		t.Errorf("the same seed gave two orders: %v and %v", a, b)
	}
	if slices.Equal(a, canonical) || slices.Equal(a, run(4)) {
		t.Errorf("seed 3 fired in order %v: not a permutation of its own", a)
	}
	early, late := slices.Clone(a[:16]), slices.Clone(a[16:])
	slices.Sort(early)
	slices.Sort(late)
	if !slices.Equal(append(early, late...), canonical) {
		t.Errorf("seed 3 moved an event across instants or lost one: %v", a)
	}
}
