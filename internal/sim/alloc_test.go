package sim

import (
	"testing"
	"time"
)

// TestStaleTimerCancelIsNoop pins the generation check on recycled events: a
// Timer held across its event's firing must not cancel the event that later
// reuses the same freelist slot.
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

	// A live cancel on the same slot still works.
	fired = false
	live := e.After(time.Millisecond, func() { fired = true })
	live.Cancel()
	e.Run()
	if fired {
		t.Fatal("live Timer.Cancel did not cancel its event")
	}
}

// TestAllocsSleepSteadyState pins the scheduling hot path at zero
// allocations: Sleep schedules the top-level dispatchProc with the proc as
// its argument, on the engine's event freelist.
func TestAllocsSleepSteadyState(t *testing.T) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ { // warm the freelist
			p.Sleep(time.Microsecond)
		}
		if n := testing.AllocsPerRun(100, func() {
			p.Sleep(time.Microsecond)
		}); n != 0 {
			t.Errorf("Sleep: %v allocs/op, want 0", n)
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
