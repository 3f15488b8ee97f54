package sim

import (
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"
)

// Host is a Scheduler that can also run cooperative processes: the
// sequential Engine, or a Locale of a fabric over one. Layers that spawn
// procs or device daemons (the SCI interconnect, the MPI device,
// shared-memory buses) accept a Host. The cooperative contract: at most one
// process of an engine executes at any moment, so state confined to one
// engine needs no locking. Only the Engine runs processes: a Shard has Go
// and GoDaemon only because a Locale is a Host, and both panic.
type Host interface {
	Scheduler
	Go(name string, body func(p *Proc)) *Proc
	GoDaemon(name string, body func(p *Proc)) *Proc
}

// ProcSwitches returns the number of times control was handed to a process
// so far: each is a coroutine switch there and one back, and costs more wall
// time than everything else an event does. A sleep that was elided made
// none; SleepsElided counts those.
func (e *Engine) ProcSwitches() uint64 { return e.switches }

// SleepsElided returns the number of Sleep calls that returned without
// yielding because the sleeper's own wake was the next event to fire (see
// Proc.Sleep). Each still counts in Events.
func (e *Engine) SleepsElided() uint64 { return e.elided }

// ProcsStarted returns the number of processes that were dispatched at least
// once: each took a coroutine then. A daemon that nothing ever woke or
// resumed has none and is not counted.
func (e *Engine) ProcsStarted() uint64 { return e.started }

// procPanic wraps a panic that escaped a process body, with the process's
// name. It propagates out of the coroutine's next onto the engine's
// goroutine.
type procPanic struct {
	proc  string
	value any
}

func (pp *procPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", pp.proc, pp.value)
}

// Proc is a cooperative simulated process. A Proc's body runs on a
// coroutine of its own, which its engine switches to and which switches back
// when the process blocks on a virtual-time primitive, so at most one of an
// engine's processes executes at a time.
//
// All Proc methods must be called from the process's own body.
type Proc struct {
	e    *Engine
	name string
	body func(p *Proc)

	// co is taken from the coroutine pool by the process's first dispatch,
	// and given back by the engine once the body has returned (see
	// dispatch); until then the process costs this struct alone.
	co *coroutine
	// parked is true while the proc is blocked waiting for an external
	// wake (not a self-scheduled timer). Used to catch double-wakes.
	parked bool
	// daemon processes do not count toward the deadlock check: they are
	// expected to stay blocked forever once the workload has drained
	// (device handlers, DMA engines). A daemon starts parked.
	daemon bool
	// finished is set when the body returns; the deadlock report lists
	// non-daemon procs that never got here.
	finished bool
	// handoff is where a channel deposits the value for p while p is blocked
	// as its receiver (see takeHandoff). In a timed wait it holds what p
	// waits on until the value arrives, or the expiry event leaves
	// waitExpired there (see RecvTimeout). While p is queued on a Mutex or
	// a Credits it links the next waiter in the list's ring, and a Release
	// leaves the slot p was handed there (see waitList). Before p first runs
	// it holds what its spawner left for the body (see SetArg).
	handoff any
}

// Now returns the current virtual time of the process's engine.
func (p *Proc) Now() time.Duration { return p.e.now }

// Go spawns a new process. The body starts at the current virtual time,
// after already-scheduled same-time events. Go may be called before Run or
// from within any process or event callback.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, false)
}

// GoDaemon makes a daemon process: one that services requests forever and
// is allowed to still be blocked when the event queue drains (it does not
// trigger the deadlock check). Use it for device handler threads.
//
// The daemon starts parked, with no coroutine and nothing queued: its body
// runs from the top at its first piece of work, when an event callback
// Resumes it or something Wakes it. A daemon that is never given work costs
// its Proc and nothing else.
func (e *Engine) GoDaemon(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, true)
}

func (e *Engine) spawn(name string, body func(p *Proc), daemon bool) *Proc {
	if e.released {
		panic(fmt.Sprintf("sim: process %q spawned on an engine that already ran: %s", name, releasedRule))
	}
	p := e.newProc()
	*p = Proc{e: e, name: name, body: body, daemon: daemon, parked: daemon}
	e.procs = append(e.procs, p)
	if !daemon {
		e.nprocs++
		e.AfterCall(0, dispatchProc, p)
	}
	return p
}

// newProc hands out the next Proc of the current block. Procs are made in
// blocks, as many as were made so far and at least 16, and the registry grows
// with each block, so n spawns cost O(log n) allocations, not n.
func (e *Engine) newProc() *Proc {
	if len(e.procBlock) == 0 {
		n := max(16, len(e.procs))
		e.procBlock = make([]Proc, n)
		e.procs = slices.Grow(e.procs, n)
	}
	p := &e.procBlock[0]
	e.procBlock = e.procBlock[1:]
	return p
}

// SetArg leaves arg for p's body to take with TakeArg. A spawner that starts
// many processes from one body passes each its own state this way rather than
// in a closure per process. Call it before p first runs.
func (p *Proc) SetArg(arg any) {
	if p.co != nil || p.finished {
		panic(fmt.Sprintf("sim: SetArg on process %q, which already ran", p.name))
	}
	p.handoff = arg
}

// TakeArg returns what SetArg left for p and clears it. Call it at the top of
// the body, before p blocks: the slot is p's hand-off slot from then on.
func (p *Proc) TakeArg() any {
	arg := p.handoff
	p.handoff = nil
	return arg
}

// main runs p's body on p's coroutine. However the body ends, p is finished
// then. A panic in the body goes on as a *procPanic, which the coroutine's
// next raises on the engine's goroutine so callers (and tests) can observe
// it there; the daemonReleased panic of releaseDaemons ends here like a
// return, after the body's deferred calls ran.
func (p *Proc) main() {
	defer func() {
		r := recover()
		p.finished = true
		if !p.daemon {
			p.e.nprocs--
		}
		if _, released := r.(daemonReleased); r != nil && !released {
			panic(&procPanic{proc: p.name, value: r})
		}
	}()
	p.body(p)
}

// daemonReleased is the panic with which a daemon that releaseDaemons
// resumed leaves its body (see yieldToEngine).
type daemonReleased struct{}

// coroutine is a stackful coroutine from iter.Pull that runs processes, one
// after another: next switches to it, and it switches back when the process
// blocks (yield) or ends. Between processes it sits in the coroutine pool,
// holding no process and no body.
type coroutine struct {
	p     *Proc // the process it runs; nil while pooled
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func newCoroutine() *coroutine {
	co := new(coroutine)
	co.next, co.stop = iter.Pull(co.run)
	return co
}

// run is the coroutine's body: run the assigned process to its end, switch
// back, and take the next process on the next switch in. It returns when
// the pool, full, stops it. A process that panics or calls runtime.Goexit
// ends the loop with it, and iter.Pull passes the panic or the Goexit on to
// the goroutine that switched in: that coroutine is done and dropped.
func (co *coroutine) run(yield func(struct{}) bool) {
	co.yield = yield
	for {
		co.p.main()
		co.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// maxIdleCoroutines bounds the coroutine pool. The most processes a
// committed benchmark workload has alive at once is 16: world_churn's 8x2
// ranks, or allreduce8's 8 ranks and their 8 device daemons (rmem_failover's
// world peaks at 8). 64 keeps the coroutines of four such worlds run side by
// side, as parallel tests do.
const maxIdleCoroutines = 64

// coroutines is the coroutine pool: the coroutines of processes that ended,
// for the next first dispatch anywhere in the program, so once a world has
// run, the processes of the next one make none. It is an array, so a
// hand-back inside a measured window never grows it; a coroutine that finds
// it full is stopped, which ends its goroutine. Every engine in the program
// shares it, and independent engines may run on different goroutines at once
// (parallel tests, worlds run side by side), hence the lock.
var coroutines struct {
	sync.Mutex
	n    int
	idle [maxIdleCoroutines]*coroutine
}

// takeCoroutine returns an idle coroutine, or a new one if none is idle.
func takeCoroutine() *coroutine {
	l := &coroutines
	l.Lock()
	if l.n == 0 {
		l.Unlock()
		return newCoroutine()
	}
	l.n--
	co := l.idle[l.n]
	l.idle[l.n] = nil
	l.Unlock()
	return co
}

// putCoroutine keeps co, whose process ended, for a later process unless the
// pool is full, and stops it then. Only an engine gives a coroutine back,
// after co's next has returned: from inside co, the hand-back would let an
// engine on another goroutine switch in before co had switched out.
func putCoroutine(co *coroutine) {
	l := &coroutines
	l.Lock()
	if l.n < len(l.idle) {
		l.idle[l.n] = co
		l.n++
		l.Unlock()
		return
	}
	l.Unlock()
	co.stop()
}

// IdleCoroutines returns the number of coroutines the pool holds. Each is a
// parked goroutine that runtime.NumGoroutine counts, so a leak check compares
// the goroutine count with the one before the run plus the pool's growth.
func IdleCoroutines() int {
	l := &coroutines
	l.Lock()
	defer l.Unlock()
	return l.n
}

// dispatchProc is the event that hands control to a process: a top-level
// function scheduled through AfterCall, so spawning, Sleep and wake make no
// closure. The event is the process's own — nothing else runs in it once
// the process blocks — which is what lets Sleep elide.
func dispatchProc(arg any) {
	p := arg.(*Proc)
	p.e.dispatch(p, true)
}

// dispatch transfers control to p until it blocks again; ownEvent says
// whether the event doing so is p's own (dispatchProc) or somebody else's
// callback (Resume). The first dispatch of p takes a coroutine from the pool,
// which runs the body from the top; once the pool is warm that makes
// nothing. When the body has returned, the coroutine goes back to the pool.
// A panic of the body comes out of next and leaves e.cur to Run's way out
// (see releaseDaemons).
func (e *Engine) dispatch(p *Proc, ownEvent bool) {
	prev := e.cur
	e.cur = p
	e.ownEvent = ownEvent
	e.switches++
	if p.co == nil {
		p.co = takeCoroutine()
		p.co.p = p
		e.started++
	}
	p.co.next()
	e.cur = prev
	e.ownEvent = false
	if p.finished {
		putCoroutine(p.co)
		p.co = nil
	}
}

// BlockedProcs returns the names of the non-daemon processes that have been
// spawned but not finished — the processes a deadlock report must name.
func (e *Engine) BlockedProcs() []string {
	var names []string
	for _, p := range e.procs {
		if !p.daemon && !p.finished {
			names = append(names, p.name)
		}
	}
	return names
}

// yieldToEngine blocks the calling process and resumes the engine's event
// loop. The process will continue when something calls e.dispatch(p) again.
// A daemon that releaseDaemons resumed leaves its body instead, by the
// daemonReleased panic that main recovers.
func (p *Proc) yieldToEngine() {
	p.co.yield(struct{}{})
	if p.e.released {
		panic(daemonReleased{})
	}
}

// releasedRule is why an engine that ended daemons refuses further work.
const releasedRule = "a drained run ends its daemons, so an engine that had any runs once; build a new engine"

// releaseDaemons ends every daemon that is still blocked, one at a time and
// in spawn order, and gives its coroutine back to the pool. Run calls it on
// its way out, after which no process is current: a drained simulation can
// never wake its device handlers and DMA engines again, and their parked
// coroutines would pin everything they reference — a whole world — for the
// life of the program. A daemon that never started has no coroutine and is
// skipped, but its engine is finished with all the same. A resumed daemon
// sees released set and leaves its body (see yieldToEngine); no switch is
// counted.
func (e *Engine) releaseDaemons() {
	e.cur, e.ownEvent = nil, false
	for _, p := range e.procs {
		if !p.daemon || p.finished {
			continue
		}
		e.released = true
		if co := p.co; co != nil {
			for !p.finished {
				co.next()
			}
			putCoroutine(co)
			p.co = nil
		}
	}
}

// Sleep advances the process's virtual time by d. Negative d is clamped to
// zero. Everything queued for an instant up to and including now+d runs
// before Sleep returns, same-time events under Sleep(0) too; for that the
// process schedules its own wake and yields to the engine.
//
// When nothing is queued that early, the wake would be the very next event
// to fire and nobody could observe the yield, so Sleep elides it: it moves
// the clock, consumes the wake's sequence number, counts its event and
// returns, with no coroutine switch and nothing queued. Schedules, Events
// and every tie-break are those of the yielding sleep. A process running
// under Resume always yields — the callback that resumed it has work left at
// the old instant — as does one on an engine that was stopped.
func (p *Proc) Sleep(d time.Duration) {
	p.checkCurrent("Sleep")
	if d < 0 {
		d = 0
	}
	e := p.e
	if e.ownEvent && e.skipTo(e.now+d) {
		e.elided++
		return
	}
	e.schedule(e.now+d, nil, dispatchProc, p)
	p.yieldToEngine()
}

// park blocks the process until Wake is called on it. It is the building
// block for channels, mutexes and futures.
func (p *Proc) park() {
	p.checkCurrent("park")
	p.parked = true
	p.yieldToEngine()
}

// Park blocks the process until an event callback calls Resume on it.
func (p *Proc) Park() { p.park() }

// Resume continues a process blocked in Park, or starts a daemon that has not
// started yet, inside the current event: control passes to p at once and
// comes back when p next blocks. It serves a handler whose requests arrive as
// events and only sometimes need a stack — the callback does the bookkeeping
// and resumes the process for the rest at the same instant and event sequence
// number, where waking it would cost a further event. Only an event callback
// may call it: the engine switches to its processes, and a process that
// switched to another would hand control back to the wrong side.
func (p *Proc) Resume() {
	if cur := p.e.cur; cur != nil {
		panic(fmt.Sprintf("sim: Resume of process %q from process %q, not from an event callback", p.name, cur.name))
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Resume of non-parked process %q", p.name))
	}
	p.parked = false
	p.e.dispatch(p, false)
}

// Wake schedules a parked process to resume at the current virtual time: a
// process blocked in Park, or a daemon that has not started yet. Waking a
// process that is not parked panics: it indicates a bookkeeping bug in a
// synchronization primitive. Synchronization primitives are confined to one
// engine: waking a process from another would corrupt both heaps.
func (p *Proc) Wake() {
	if !p.parked {
		panic(fmt.Sprintf("sim: wake of non-parked process %q", p.name))
	}
	p.parked = false
	p.e.schedule(p.e.now, nil, dispatchProc, p)
}

func (p *Proc) checkCurrent(op string) {
	if p.e.cur != p {
		panic(fmt.Sprintf("sim: %s called on process %q from outside its body", op, p.name))
	}
}
