// Package sim implements a deterministic discrete-event simulation engine
// with cooperative, virtual-time processes.
//
// The engine owns a virtual clock and a priority queue of events. Processes
// are coroutines, and exactly one of them (or the engine itself) runs at any
// moment: a process executes until it blocks on a virtual-time primitive
// (Sleep, channel operation, mutex, future, ...), at which point control
// returns to the engine, which dispatches the next event. Ties in the event
// queue are broken by a monotonically increasing sequence number, so a given
// program produces exactly the same schedule on every run.
//
// Virtual time is represented as time.Duration since the start of the
// simulation. No wall-clock time is ever consulted.
package sim

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Scheduler is the event-scheduling surface shared by the sequential Engine
// and the shards of a ShardedEngine. Layers that only need a virtual clock
// and timers (the flow network, device models) accept a Scheduler so the
// same code runs under either engine.
type Scheduler interface {
	Now() time.Duration
	At(t time.Duration, fn func()) Timer
	After(d time.Duration, fn func()) Timer
	AfterCall(d time.Duration, fn func(any), arg any) Timer
}

// Engine is a discrete-event simulator, and the one host of cooperative
// processes. The zero value is not usable; create one with NewEngine.
type Engine struct {
	eventQueue

	// stopped is set by Stop; Run returns as soon as it is observed.
	stopped bool

	// The process runtime: the current process, and the registry the
	// deadlock report names.
	cur    *Proc
	nprocs int     // non-daemon procs spawned and not yet finished
	procs  []*Proc // registry of all spawned procs (deadlock reports name them)
	// procBlock holds the Procs of the current block not handed out yet (see
	// newProc).
	procBlock []Proc

	switches uint64 // control transfers to a process (dispatch calls)
	elided   uint64 // sleeps that returned without one (see Proc.Sleep)
	started  uint64 // processes whose first dispatch took a coroutine

	// ownEvent is true while the running process was dispatched by an event
	// of its own (dispatchProc), false while it runs under Resume inside
	// somebody else's callback: only the former may elide a sleep.
	ownEvent bool

	// released is set when a finished Run starts ending its daemons: a
	// daemon resumed then leaves its body (see yieldToEngine), and the
	// engine's services are gone, so it refuses further processes.
	released bool
}

// NewEngine returns an empty simulation at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// eventQueue is one scheduling domain's virtual clock, event heap and
// freelist: the whole of the sequential Engine's scheduling state, and the
// private part of each Shard's. Only one goroutine may touch it at a time.
type eventQueue struct {
	now    time.Duration
	seq    uint64
	queue  []*event // 4-ary min-heap on (at, seq); every entry is live
	free   []*event // recycled events (hot paths schedule without allocating)
	made   int      // events allocated so far, in blocks (see refill)
	events uint64   // events dispatched, elided sleeps included

	cancelled uint64 // events Timer.Cancel took out of the heap
	depthMax  int    // most events ever queued at once

	// tieSeed, when non-zero, breaks ties among same-instant events by a
	// seeded permutation of the scheduling order instead of the order
	// itself. Nothing outside this package's tests can set it: schedule
	// exploration runs a program under other event orders that are as valid
	// as the canonical one, to show that its results do not lean on the
	// tie-break.
	tieSeed uint64
}

// permuteTie maps a scheduling sequence number to its tie-break key under
// seed: the splitmix64 finalizer, a bijection, so keys stay unique.
func permuteTie(seq, seed uint64) uint64 {
	z := seq + seed*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Now returns the current virtual time: the time of the last event
// dispatched.
func (q *eventQueue) Now() time.Duration { return q.now }

// Events returns the number of events dispatched so far.
func (q *eventQueue) Events() uint64 { return q.events }

// TimersCancelled returns the number of scheduled events that were cancelled
// instead of dispatched.
func (q *eventQueue) TimersCancelled() uint64 { return q.cancelled }

// HeapDepthMax returns the largest number of live events that were ever
// queued at once: a cancelled event leaves the heap at once, and a sleep
// that was elided (see Proc.Sleep) was never in it.
func (q *eventQueue) HeapDepthMax() int { return q.depthMax }

// event is a scheduled callback. Events are recycled through the queue's
// freelist; gen distinguishes a live incarnation from a recycled one so a
// stale Timer cannot cancel an unrelated later event.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	fnArg func(any) // set (with arg) instead of fn by AfterCall
	arg   any
	q     *eventQueue // the queue ev belongs to, for Timer.Cancel
	index int         // position in q.queue while queued
	gen   uint64
}

// Timer is a handle to a scheduled event that can be canceled. It is a
// small value; the zero Timer is valid and Cancel on it is a no-op.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running: the event leaves the
// queue at once. Canceling an already-fired or already-canceled timer is a
// no-op — either recycled the event, so its generation moved on.
func (t Timer) Cancel() {
	if ev := t.ev; ev != nil && ev.gen == t.gen {
		q := ev.q
		q.remove(ev.index)
		q.recycle(ev)
		q.cancelled++
	}
}

// schedule grabs an event (from the freelist when possible) and queues it.
func (q *eventQueue) schedule(t time.Duration, fn func(), fnArg func(any), arg any) Timer {
	if t < q.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, q.now))
	}
	if len(q.free) == 0 {
		q.refill()
	}
	n := len(q.free)
	ev := q.free[n-1]
	q.free[n-1] = nil
	q.free = q.free[:n-1]
	ev.at, ev.seq, ev.fn, ev.fnArg, ev.arg = t, q.seq, fn, fnArg, arg
	if q.tieSeed != 0 {
		ev.seq = permuteTie(q.seq, q.tieSeed)
	}
	q.seq++
	q.queue = append(q.queue, ev)
	q.siftUp(len(q.queue)-1, ev)
	q.depthMax = max(q.depthMax, len(q.queue))
	return Timer{ev: ev, gen: ev.gen}
}

// refill stocks the empty freelist with a block of new events, as many as the
// queue has made so far and at least 16, so a queue makes O(log n) blocks for
// n events in flight at once. free and the heap are sized here to hold every
// event made — every queued entry is one — so neither recycle nor schedule
// ever grows them.
func (q *eventQueue) refill() {
	block := make([]event, max(16, q.made))
	q.made += len(block)
	q.free = make([]*event, len(block), q.made)
	for i := range block {
		block[i].q = q
		q.free[i] = &block[i]
	}
	q.queue = append(make([]*event, 0, q.made), q.queue...)
}

// recycle invalidates outstanding Timers for ev and returns it to the
// freelist.
func (q *eventQueue) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.fnArg, ev.arg = nil, nil, nil
	q.free = append(q.free, ev)
}

// At schedules fn to run at virtual time t. Scheduling in the past (t before
// Now) panics: it would corrupt causality.
func (q *eventQueue) At(t time.Duration, fn func()) Timer {
	return q.schedule(t, fn, nil, nil)
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (q *eventQueue) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return q.schedule(q.now+d, fn, nil, nil)
}

// AfterCall schedules fn(arg) to run d from now. It exists for hot paths:
// passing the argument explicitly instead of closing over it lets callers
// schedule with a shared top-level function and avoid a closure allocation
// per event. Negative d is clamped to zero.
func (q *eventQueue) AfterCall(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return q.schedule(q.now+d, nil, fn, arg)
}

// peek returns the earliest queued event without removing it, or nil if
// none is pending.
func (q *eventQueue) peek() *event {
	if len(q.queue) == 0 {
		return nil
	}
	return q.queue[0]
}

// skipTo stands in for an event the caller would schedule at t only to wait
// for it, when that event would be the very next to fire: nothing queued is
// due at or before t (a tie at t might be ordered first) and the run loop is
// not stopped. It then moves the clock to t, consumes the sequence number and
// counts the event, as scheduling and firing it would have, and reports true.
func (e *Engine) skipTo(t time.Duration) bool {
	if len(e.queue) > 0 && e.queue[0].at <= t || e.stopped {
		return false
	}
	e.now = t
	e.seq++
	e.events++
	return true
}

// fire removes ev — the event peek just returned — advances the clock
// to it and runs its callback.
func (q *eventQueue) fire(ev *event) {
	q.remove(0)
	q.now = ev.at
	// Detach the callback and recycle before invoking it: the callback
	// may schedule new events, which can then reuse this slot.
	fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
	q.recycle(ev)
	q.events++
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
}

// Stop makes Run return after the currently dispatched event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events until the queue is empty or Stop is called. It
// returns the final virtual time. Run panics if any spawned process is still
// blocked when the event queue drains (deadlock: nothing can ever wake it).
//
// However Run ends — drained, stopped, or by a panic — it ends the daemons
// that are still blocked. An engine that had any is finished with: its
// services are gone, so a second Run, or a Go, panics.
func (e *Engine) Run() time.Duration {
	if e.released {
		panic("sim: Run on an engine that already ran: " + releasedRule)
	}
	defer e.releaseDaemons()
	for !e.stopped {
		ev := e.peek()
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	if !e.stopped && e.nprocs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) still blocked at %v with no pending events: %s",
			e.nprocs, e.now, blockedProcList(e.BlockedProcs())))
	}
	return e.now
}

// blockedProcList renders a deadlock name list, capped so a 512-node
// deadlock stays readable.
func blockedProcList(names []string) string {
	const maxNamed = 16
	if len(names) == 0 {
		return "(unknown)"
	}
	shown := names
	if len(shown) > maxNamed {
		shown = shown[:maxNamed]
	}
	s := strings.Join(shown, ", ")
	if extra := len(names) - len(shown); extra > 0 {
		s += fmt.Sprintf(", ... (+%d more)", extra)
	}
	return s
}

// RateDuration returns the virtual time needed to move n bytes at rate
// bytes/second, rounded up to the next nanosecond. A non-positive rate
// panics: it would mean an infinite transfer.
func RateDuration(n int64, rate float64) time.Duration {
	if n <= 0 {
		return 0
	}
	if rate <= 0 {
		panic("sim: non-positive rate")
	}
	s := float64(n) / rate
	ns := math.Ceil(s * 1e9)
	return time.Duration(ns)
}

// The queue is a 4-ary min-heap on (at, seq), sifted by hand: half the
// levels of a binary heap, no interface calls and no boxing, and each event
// records its index so Cancel removes it where it lies.

// before reports whether a fires before b.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// siftUp places ev at index i or above.
func (q *eventQueue) siftUp(i int, ev *event) {
	h := q.queue
	for i > 0 {
		parent := (i - 1) / 4
		if !before(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// siftDown places ev at index i or below.
func (q *eventQueue) siftDown(i int, ev *event) {
	h := q.queue
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		least, end := first, min(first+4, len(h))
		for c := first + 1; c < end; c++ {
			if before(h[c], h[least]) {
				least = c
			}
		}
		if !before(h[least], ev) {
			break
		}
		h[i] = h[least]
		h[i].index = i
		i = least
	}
	h[i] = ev
	ev.index = i
}

// remove takes the event at index i out of the heap.
func (q *eventQueue) remove(i int) {
	n := len(q.queue) - 1
	last := q.queue[n]
	q.queue[n] = nil
	q.queue = q.queue[:n]
	if i == n {
		return
	}
	if i > 0 && before(last, q.queue[(i-1)/4]) {
		q.siftUp(i, last)
	} else {
		q.siftDown(i, last)
	}
}
