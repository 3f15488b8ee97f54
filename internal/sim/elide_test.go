package sim

import (
	"slices"
	"testing"
	"time"
)

// Sleep elision: a sleep whose own wake would be the very next event to fire
// returns without yielding. The tests pin when it may (nothing live is due
// up to and including now+d) and when it must not (something is, the process
// runs under Resume, the engine was stopped), and that an elided sleep leaves
// the same clock, sequence numbers and event count behind as one that
// yielded.

// TestAllocsLoneSleeperElided: with nothing else queued a sleep is one event, no
// process switch, no allocation, and the clock advances.
func TestAllocsLoneSleeperElided(t *testing.T) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		events, switches, seq := e.Events(), e.ProcSwitches(), e.seq
		p.Sleep(3 * time.Microsecond)
		if p.Now() != 3*time.Microsecond {
			t.Errorf("clock at %v after Sleep(3µs), want 3µs", p.Now())
		}
		if ev, sw := e.Events()-events, e.ProcSwitches()-switches; ev != 1 || sw != 0 {
			t.Errorf("a lone sleep took %d events and %d switches, want 1 and 0", ev, sw)
		}
		if e.seq != seq+1 {
			t.Errorf("a lone sleep consumed %d sequence numbers, want 1", e.seq-seq)
		}
		if n := testing.AllocsPerRun(100, func() { p.Sleep(time.Microsecond) }); n != 0 {
			t.Errorf("elided Sleep: %v allocs/op, want 0", n)
		}
	})
	end := e.Run()
	if end != 104*time.Microsecond { // AllocsPerRun calls once to warm up
		t.Errorf("run ended at %v, want 104µs", end)
	}
	if got := e.SleepsElided(); got != 102 {
		t.Errorf("SleepsElided = %d, want 102", got)
	}
	if got := e.ProcSwitches(); got != 1 {
		t.Errorf("ProcSwitches = %d, want 1 (the first dispatch)", got)
	}
	if got := e.HeapDepthMax(); got != 1 {
		t.Errorf("HeapDepthMax = %d, want 1: an elided sleep is never queued", got)
	}
}

// TestDueEventForcesYield: an event queued for an instant before now+d, or
// for now+d itself, runs before Sleep returns, in the order the yielding
// sleep always gave: by time, then by scheduling order — so the event at
// now+d, scheduled before the sleep, fires ahead of the wake. An event
// queued for later than now+d does not force anything.
func TestDueEventForcesYield(t *testing.T) {
	for _, c := range []struct {
		name   string
		at     time.Duration
		elided uint64
		want   []string
	}{
		{"earlier", 1 * time.Microsecond, 0, []string{"event at 1µs", "woke at 2µs"}},
		{"same instant", 2 * time.Microsecond, 0, []string{"event at 2µs", "woke at 2µs"}},
		{"later", 3 * time.Microsecond, 1, []string{"woke at 2µs", "event at 3µs"}},
	} {
		e := NewEngine()
		var log []string
		e.Go("sleeper", func(p *Proc) {
			e.After(c.at, func() { log = append(log, "event at "+e.Now().String()) })
			p.Sleep(2 * time.Microsecond)
			log = append(log, "woke at "+p.Now().String())
		})
		e.Run()
		if !slices.Equal(log, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, log, c.want)
		}
		if got := e.SleepsElided(); got != c.elided {
			t.Errorf("%s: SleepsElided = %d, want %d", c.name, got, c.elided)
		}
		if got := e.Events(); got != 3 { // first dispatch, the event, the wake
			t.Errorf("%s: %d events, want 3 whether or not the sleep yielded", c.name, got)
		}
	}
}

// TestSleepZeroLetsSameInstantEventsRun: Sleep(0) with an event pending at
// the current instant still yields to it.
func TestSleepZeroLetsSameInstantEventsRun(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("sleeper", func(p *Proc) {
		e.After(0, func() { ran = true })
		p.Sleep(0)
		if !ran {
			t.Error("Sleep(0) returned before the event pending at the same instant ran")
		}
	})
	e.Run()
}

// TestCancelledTimerDoesNotBlockElision: a timer cancelled between now and
// now+d is out of the queue, so the sleep is elided; it is still counted as
// cancelled, and never fires.
func TestCancelledTimerDoesNotBlockElision(t *testing.T) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		tm := e.After(time.Microsecond, func() { t.Error("cancelled timer fired") })
		tm.Cancel()
		switches := e.ProcSwitches()
		p.Sleep(2 * time.Microsecond)
		if e.ProcSwitches() != switches {
			t.Error("a cancelled timer before now+d made the sleep yield")
		}
	})
	e.Run()
	if got := e.TimersCancelled(); got != 1 {
		t.Errorf("TimersCancelled = %d, want 1", got)
	}
	if got := e.SleepsElided(); got != 1 {
		t.Errorf("SleepsElided = %d, want 1", got)
	}
}

// TestNoElisionAfterStop: a process that stops the engine and then sleeps
// yields, so Run returns at once with the process still blocked.
func TestNoElisionAfterStop(t *testing.T) {
	e := NewEngine()
	returned := false
	e.GoDaemon("stopper", func(p *Proc) { // a daemon, so Run ends its goroutine
		p.Sleep(time.Microsecond)
		e.Stop()
		p.Sleep(time.Microsecond)
		returned = true
	}).Wake()
	if end := e.Run(); end != time.Microsecond {
		t.Errorf("run ended at %v, want 1µs: the sleep after Stop moved the clock", end)
	}
	if returned {
		t.Error("the sleep after Stop returned: Run did not end with the process blocked")
	}
	if got := e.SleepsElided(); got != 1 {
		t.Errorf("SleepsElided = %d, want 1 (the sleep before Stop)", got)
	}
}

// TestHeapOrderUnderCancellation drives the 4-ary heap through schedules and
// cancellations at every depth and checks that what is left fires in (time,
// scheduling order), each event once.
func TestHeapOrderUnderCancellation(t *testing.T) {
	e := NewEngine()
	const n = 500
	var fired []int
	timers := make([]Timer, n)
	at := func(i int) time.Duration { return time.Duration(i*7919%97) * time.Microsecond }
	for i := 0; i < n; i++ {
		timers[i] = e.AfterCall(at(i), func(arg any) { fired = append(fired, arg.(int)) }, i)
	}
	var want []int
	cancelled := uint64(0)
	for i := 0; i < n; i++ {
		if i%3 == 1 {
			timers[i].Cancel()
			cancelled++
		} else {
			want = append(want, i)
		}
	}
	for i, ev := range e.queue {
		if ev.index != i {
			t.Fatalf("event at heap position %d records index %d", i, ev.index)
		}
	}
	slices.SortStableFunc(want, func(a, b int) int { return int(at(a) - at(b)) })
	e.Run()
	if !slices.Equal(fired, want) {
		t.Errorf("fired %d events out of (time, scheduling) order or not exactly once", len(fired))
	}
	if got := e.TimersCancelled(); got != cancelled {
		t.Errorf("TimersCancelled = %d, want %d", got, cancelled)
	}
}
