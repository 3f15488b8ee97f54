package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Host is a Scheduler that can also run cooperative processes: the
// sequential Engine, one Shard of a ShardedEngine, or a Locale of a Fabric.
// Layers that spawn procs or device daemons (the SCI interconnect, the MPI
// device, shared-memory buses) accept a Host so the same protocol stack
// runs unchanged under either engine. The cooperative contract is per host:
// at most one process of a host executes at any moment, so state confined
// to one host needs no locking even when several hosts (shards) run in
// parallel.
type Host interface {
	Scheduler
	Go(name string, body func(p *Proc)) *Proc
	GoDaemon(name string, body func(p *Proc)) *Proc
}

// procRuntime is the cooperative-process machinery shared by the sequential
// Engine and each Shard of a ShardedEngine: the yield handshake, the
// current-process pointer, and the registry the deadlock report names.
type procRuntime struct {
	yield  chan struct{} // procs signal the runtime here when they block
	q      *eventQueue   // the host's queue: where a sleeping proc's wake goes
	cur    *Proc
	nprocs int     // non-daemon procs spawned and not yet finished
	procs  []*Proc // registry of all spawned procs (deadlock reports name them)
	// procBlock holds the Procs of the current block not handed out yet (see
	// newProc).
	procBlock []Proc

	switches uint64 // control transfers to a process (dispatch calls)
	elided   uint64 // sleeps that returned without one (see Proc.Sleep)
	started  uint64 // processes whose first dispatch made their goroutine

	// ownEvent is true while the running process was dispatched by an event
	// of its own (dispatchProc), false while it runs under Resume inside
	// somebody else's callback: only the former may elide a sleep.
	ownEvent bool

	// pendingPanic holds a panic recovered from a process body, re-raised
	// by dispatch on the host's goroutine.
	pendingPanic *procPanic

	// released is set once a finished Run has ended daemon goroutines: the
	// host's services are gone, so it refuses further processes.
	released bool
}

// ProcSwitches returns the number of times control was handed to a process
// so far: each is two goroutine switches on the host, and costs more wall
// time than everything else an event does. A sleep that was elided made
// none; SleepsElided counts those.
func (rt *procRuntime) ProcSwitches() uint64 { return rt.switches }

// SleepsElided returns the number of Sleep calls that returned without
// yielding because the sleeper's own wake was the next event to fire (see
// Proc.Sleep). Each still counts in Events.
func (rt *procRuntime) SleepsElided() uint64 { return rt.elided }

// ProcsStarted returns the number of processes that were dispatched at least
// once: each got a goroutine then. A daemon that nothing ever woke or resumed
// has none and is not counted.
func (rt *procRuntime) ProcsStarted() uint64 { return rt.started }

// initHost prepares a host's runtime and queue: the yield channel cannot be
// the zero value, the runtime schedules wakes on q, and q runs unbounded
// until stop is set.
func (rt *procRuntime) initHost(q *eventQueue, stop *atomic.Bool) {
	rt.yield = make(chan struct{})
	rt.q = q
	q.horizon = maxDuration
	q.stop = stop
}

// procPanic wraps a panic that escaped a process body. It is re-raised as
// the panic value itself so outer recovery layers (the sharded engine's
// window recover) can attribute it to the process by name.
type procPanic struct {
	proc  string
	value any
}

func (pp *procPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", pp.proc, pp.value)
}

// Proc is a cooperative simulated process. A Proc's body runs on its own
// goroutine, but its host guarantees that at most one of its processes
// executes at a time; a process runs until it blocks on a virtual-time
// primitive.
//
// All Proc methods must be called from the process's own body.
type Proc struct {
	rt   *procRuntime
	host Host
	name string
	body func(p *Proc)

	// resume is taken from resumeChans, with a goroutine started, by the
	// process's first dispatch, and given back when that goroutine ends (see
	// main); until then the process costs this struct alone.
	resume chan struct{}
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
	// killed tells a blocked daemon to end its goroutine instead of
	// continuing when it is next resumed (see releaseDaemons).
	killed bool
	// handoff is where a channel deposits the value for p while p is blocked
	// as its receiver (see takeHandoff). In a timed wait it holds what p
	// waits on until the value arrives, or the expiry event leaves
	// waitExpired there (see RecvTimeout). While p is queued on a Mutex or
	// a Credits it links the next waiter in the list's ring, and a Release
	// leaves the slot p was handed there (see waitList). Before p first runs
	// it holds what its spawner left for the body (see SetArg).
	handoff any
}

// Host returns the host this process runs on (an Engine, a Shard, or a
// Locale-backed host). Use it to schedule events or spawn helper procs on
// the same scheduling domain as p.
func (p *Proc) Host() Host { return p.host }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time of the process's host.
func (p *Proc) Now() time.Duration { return p.host.Now() }

// Go spawns a new process. The body starts at the current virtual time,
// after already-scheduled same-time events. Go may be called before Run or
// from within any process or event callback.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return spawnProc(e, &e.procRuntime, name, body, false)
}

// GoDaemon makes a daemon process: one that services requests forever and
// is allowed to still be blocked when the event queue drains (it does not
// trigger the deadlock check). Use it for device handler threads.
//
// The daemon starts parked, with no goroutine and nothing queued: its body
// runs from the top at its first piece of work, when an event callback
// Resumes it or something Wakes it. A daemon that is never given work costs
// its Proc and nothing else.
func (e *Engine) GoDaemon(name string, body func(p *Proc)) *Proc {
	return spawnProc(e, &e.procRuntime, name, body, true)
}

func spawnProc(h Host, rt *procRuntime, name string, body func(p *Proc), daemon bool) *Proc {
	if rt.released {
		panic(fmt.Sprintf("sim: process %q spawned on a host that already ran: %s", name, releasedRule))
	}
	p := rt.newProc()
	*p = Proc{rt: rt, host: h, name: name, body: body, daemon: daemon, parked: daemon}
	rt.procs = append(rt.procs, p)
	if !daemon {
		rt.nprocs++
		h.AfterCall(0, dispatchProc, p)
	}
	return p
}

// newProc hands out the next Proc of the current block. Procs are made in
// blocks, as many as were made so far and at least 16, and the registry grows
// with each block, so n spawns cost O(log n) allocations, not n.
func (rt *procRuntime) newProc() *Proc {
	if len(rt.procBlock) == 0 {
		n := max(16, len(rt.procs))
		rt.procBlock = make([]Proc, n)
		rt.procs = slices.Grow(rt.procs, n)
	}
	p := &rt.procBlock[0]
	rt.procBlock = rt.procBlock[1:]
	return p
}

// SetArg leaves arg for p's body to take with TakeArg. A spawner that starts
// many processes from one body passes each its own state this way rather than
// in a closure per process. Call it before p first runs.
func (p *Proc) SetArg(arg any) {
	if p.resume != nil || p.finished {
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

// main is the body of p's goroutine, which p's first dispatch starts. A
// panic in the body is re-raised inside the host's event loop so callers (and
// tests) can observe it on that goroutine. The deferred hand-back also runs
// for a daemon ended through Goexit (see releaseDaemons), so every started
// process gives its resume channel back.
func (p *Proc) main() {
	rt := p.rt
	defer func() {
		if r := recover(); r != nil {
			rt.pendingPanic = &procPanic{proc: p.name, value: r}
		}
		p.finished = true
		if !p.daemon {
			rt.nprocs--
		}
		putResume(p.resume)
		p.resume = nil
		rt.yield <- struct{}{} // return control to the host for good
	}()
	p.body(p)
}

// procStart hands each process to the goroutine its first dispatch starts: a
// go statement with an argument makes a closure, so the goroutine runs the
// capture-free procEntry and takes a process here. Fresh goroutines are
// interchangeable: when shards start processes at once, it does not matter
// which takes which. The host puts the process in before the go statement and
// then waits for its yield, as it would after go p.main(), so a body that
// returns at once ends its goroutine before the host goes on. Unbuffered, the
// host would block on the hand-over and the goroutine then on its yield, to
// stay behind, runnable, until the host next parked: on one P, a goroutine
// record per process of a world. The 64 slots are one per host starting a
// process at the same moment, more than the shards of any engine the
// repository builds (8); a host that finds every slot taken only waits until
// a started goroutine takes a process out.
var procStart = make(chan *Proc, 64)

func procEntry() { (<-procStart).main() }

// maxIdleResume bounds resumeChans. The most processes a committed benchmark
// workload has alive at once is 16: world_churn's 8x2 ranks, or allreduce8's
// 8 ranks and their 8 device daemons (rmem_failover's world peaks at 8). 64
// keeps the channels of four such worlds run side by side, as parallel tests
// and shards do, for 512 B of static array and 112 B per idle channel.
const maxIdleResume = 64

// resumeChans holds the resume channels of processes that ended, for the
// next first dispatch anywhere in the program: once a world has run, the
// processes of the next one make none. It is an array, so a hand-back inside
// a measured window never grows it; a channel that finds it full is left to
// the collector. The shards of a ShardedEngine start and end processes in
// parallel, hence the lock.
var resumeChans struct {
	sync.Mutex
	n    int
	free [maxIdleResume]chan struct{}
}

// takeResume returns an idle resume channel, or a new one if none is idle.
func takeResume() chan struct{} {
	l := &resumeChans
	l.Lock()
	defer l.Unlock()
	if l.n == 0 {
		return make(chan struct{})
	}
	l.n--
	c := l.free[l.n]
	l.free[l.n] = nil
	return c
}

// putResume keeps c for a later process unless the list is full. Nothing
// sends on c again: its process finished.
func putResume(c chan struct{}) {
	l := &resumeChans
	l.Lock()
	defer l.Unlock()
	if l.n < len(l.free) {
		l.free[l.n] = c
		l.n++
	}
}

// dispatchProc is the event that hands control to a process: a top-level
// function scheduled through AfterCall, so spawning, Sleep and wake make no
// closure. The event is the process's own — nothing else runs in it once
// the process blocks — which is what lets Sleep elide.
func dispatchProc(arg any) {
	p := arg.(*Proc)
	p.rt.dispatch(p, true)
}

// dispatch transfers control to p until it blocks again; ownEvent says
// whether the event doing so is p's own (dispatchProc) or somebody else's
// callback (Resume). The first dispatch of p takes its resume channel and
// starts its goroutine, which runs the body from the top; once resumeChans
// is warm it makes neither a channel nor a closure.
func (rt *procRuntime) dispatch(p *Proc, ownEvent bool) {
	prev := rt.cur
	rt.cur = p
	rt.ownEvent = ownEvent
	rt.switches++
	if p.resume == nil {
		p.resume = takeResume()
		rt.started++
		procStart <- p
		go procEntry()
	} else {
		p.resume <- struct{}{}
	}
	<-rt.yield
	rt.cur = prev
	rt.ownEvent = false
	if pp := rt.pendingPanic; pp != nil {
		rt.pendingPanic = nil
		panic(pp)
	}
}

// blockedProcs returns the names of the non-daemon processes that have been
// spawned but not finished — the processes a deadlock report must name.
func (rt *procRuntime) blockedProcs() []string {
	var names []string
	for _, p := range rt.procs {
		if !p.daemon && !p.finished {
			names = append(names, p.name)
		}
	}
	return names
}

// yieldToHost blocks the calling process and resumes the host's event loop.
// The process will continue when something calls rt.dispatch(p) again. A
// daemon that releaseDaemons resumed ends here instead: Goexit runs main's
// deferred hand-back like a normal return.
func (p *Proc) yieldToHost() {
	p.rt.yield <- struct{}{}
	<-p.resume
	if p.killed {
		runtime.Goexit()
	}
}

// releasedRule is why a host that ended daemons refuses further work.
const releasedRule = "a drained run ends its daemons, so a host that had any runs once; build a new engine"

// releaseDaemons ends the goroutine of every daemon that is still blocked,
// one at a time and in spawn order. Run calls it on its way out: a drained
// simulation can never wake its device handlers and DMA engines again, and
// their parked goroutines would pin everything they reference — a whole
// world — for the life of the program. A daemon that never started has no
// goroutine to end and is skipped, but its host is finished with all the
// same.
func (rt *procRuntime) releaseDaemons() {
	for _, p := range rt.procs {
		if !p.daemon || p.finished {
			continue
		}
		rt.released = true
		if p.resume == nil {
			continue
		}
		p.killed = true
		p.resume <- struct{}{}
		<-rt.yield
	}
}

// Sleep advances the process's virtual time by d. Negative d is clamped to
// zero. Everything queued for an instant up to and including now+d runs
// before Sleep returns, same-time events under Sleep(0) too; for that the
// process schedules its own wake and yields to the host.
//
// When nothing is queued that early, the wake would be the very next event
// to fire and nobody could observe the yield, so Sleep elides it: it moves
// the clock, consumes the wake's sequence number, counts its event and
// returns, with no goroutine switch and nothing queued. Schedules, Events
// and every tie-break are those of the yielding sleep. A process running
// under Resume always yields — the callback that resumed it has work left at
// the old instant — as does one on a host that was stopped, or whose wake
// lies past the window its shard is running.
func (p *Proc) Sleep(d time.Duration) {
	p.checkCurrent("Sleep")
	if d < 0 {
		d = 0
	}
	rt := p.rt
	if rt.ownEvent && rt.q.skipTo(rt.q.now+d) {
		rt.elided++
		return
	}
	rt.q.schedule(rt.q.now+d, nil, dispatchProc, p)
	p.yieldToHost()
}

// park blocks the process until Wake is called on it. It is the building
// block for channels, mutexes and futures.
func (p *Proc) park() {
	p.checkCurrent("park")
	p.parked = true
	p.yieldToHost()
}

// Park blocks the process until an event callback calls Resume on it.
func (p *Proc) Park() { p.park() }

// Resume continues a process blocked in Park, or starts a daemon that has not
// started yet, inside the current event: control passes to p at once and
// comes back when p next blocks. It serves a handler whose requests arrive as
// events and only sometimes need a stack — the callback does the bookkeeping
// and resumes the process for the rest at the same instant and event sequence
// number, where waking it would cost a further event. Only an event callback
// may call it: a process that resumed another would leave two goroutines
// waiting on the host's yield handshake.
func (p *Proc) Resume() {
	if p.rt.cur != nil {
		panic(fmt.Sprintf("sim: Resume of process %q from process %q, not from an event callback", p.name, p.rt.cur.name))
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Resume of non-parked process %q", p.name))
	}
	p.parked = false
	p.rt.dispatch(p, false)
}

// Wake schedules a parked process to resume at the current virtual time: a
// process blocked in Park, or a daemon that has not started yet. Waking a
// process that is not parked panics: it indicates a bookkeeping bug in a
// synchronization primitive. Synchronization primitives are confined to one
// host: waking a process from another shard would corrupt both heaps.
func (p *Proc) Wake() {
	if !p.parked {
		panic(fmt.Sprintf("sim: wake of non-parked process %q", p.name))
	}
	p.parked = false
	p.rt.q.schedule(p.rt.q.now, nil, dispatchProc, p)
}

func (p *Proc) checkCurrent(op string) {
	if p.rt.cur != p {
		panic(fmt.Sprintf("sim: %s called on process %q from outside its body", op, p.name))
	}
}
