// Sharded conservative-parallel discrete-event engine.
//
// A ShardedEngine partitions the simulated machine across worker shards:
// each shard owns its own event queue (virtual clock, heap and freelist) and
// is driven by one goroutine. Shards synchronize with a conservative window
// barrier (the synchronous variant of Chandy–Misra null messages): the
// engine's lookahead is the minimum virtual delay any cross-shard
// interaction can have — in this repo, the minimum latency of the topology
// links that cross the shard partition. Every barrier round computes the
// globally earliest pending event E and lets all shards process their local
// events in [E, E+lookahead) in parallel: any cross-shard event generated
// inside the window carries at least the lookahead of delay, so it cannot
// land inside the window, and no shard can ever receive an event in its
// past.
//
// Cross-shard sends are buffered in per-(source, destination) queues and
// exchanged at the barrier. The merge into the destination heap orders
// messages by (time, source shard, source sequence), and each shard's
// intra-window execution is sequential, so a given program produces exactly
// the same event schedule on every run regardless of how the OS schedules
// the worker goroutines. Parallelism changes wall-clock time, never virtual
// outcomes.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const maxDuration = time.Duration(1<<63 - 1)

// xmsg is one buffered cross-shard event send.
type xmsg struct {
	at  time.Duration
	src int
	seq uint64 // source shard's scheduling sequence at send time
	fn  func(any)
	arg any
}

// Shard is one worker of a ShardedEngine: a private event queue plus the
// outboxes of its cross-shard sends. During a window only the shard's own
// goroutine touches its state, so event callbacks run lock-free; between
// windows only the coordinator does. Shard implements Scheduler, Host and
// Locale: a shard can run cooperative Procs, so a full protocol world
// confined to one shard behaves exactly as it would on the sequential Engine.
type Shard struct {
	procRuntime
	eventQueue
	id     int
	eng    *ShardedEngine
	outbox [][]xmsg // per-destination buffers, drained at the barrier
	work   chan time.Duration
}

// ID returns the shard's index within its engine.
func (s *Shard) ID() int { return s.id }

// Go spawns a cooperative process hosted on this shard. The process runs
// only inside the shard's windows (on the shard's worker goroutine), so it
// may freely touch shard-confined state; it must never touch another
// shard's state — cross-shard interaction goes through Send.
func (s *Shard) Go(name string, body func(p *Proc)) *Proc {
	return spawnProc(s, &s.procRuntime, name, body, false)
}

// GoDaemon spawns a daemon process hosted on this shard (see
// Engine.GoDaemon).
func (s *Shard) GoDaemon(name string, body func(p *Proc)) *Proc {
	return spawnProc(s, &s.procRuntime, name, body, true)
}

// Send schedules fn(arg) to run d from now on shard dst. A send to the
// shard itself is an ordinary local event with no constraint; a cross-shard
// send must respect the engine's lookahead — the conservative window
// protocol is only correct because no interaction can undercut it — and
// panics otherwise.
func (s *Shard) Send(dst int, d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	if dst == s.id {
		s.AfterCall(d, fn, arg)
		return
	}
	if dst < 0 || dst >= len(s.outbox) {
		panic(fmt.Sprintf("sim: shard %d sending to unknown shard %d", s.id, dst))
	}
	if d < s.eng.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d with delay %v below lookahead %v",
			s.id, dst, d, s.eng.lookahead))
	}
	s.outbox[dst] = append(s.outbox[dst], xmsg{at: s.now + d, src: s.id, seq: s.seq, fn: fn, arg: arg})
	s.seq++
}

// window runs runWindow, converting a panic that escapes an event callback
// into a recorded failure (first one wins) for Run to re-raise on its own
// goroutine. A panic that originated inside a hosted process body arrives
// as a *procPanic, preserving the process name for attribution.
func (s *Shard) window(until time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			sp := &shardPanic{shard: s.id, value: r}
			if pp, ok := r.(*procPanic); ok {
				sp.proc, sp.value = pp.proc, pp.value
			}
			s.eng.panicMu.Lock()
			if s.eng.panicked == nil {
				s.eng.panicked = sp
			}
			s.eng.panicMu.Unlock()
			s.eng.stopped.Store(true)
		}
	}()
	s.runWindow(until)
}

// runWindow executes the shard's local events strictly before until.
func (s *Shard) runWindow(until time.Duration) {
	s.horizon = until
	for !s.eng.stopped.Load() {
		ev := s.peek()
		if ev == nil || ev.at >= until {
			return
		}
		s.fire(ev)
	}
}

// ShardedEngine is the conservative-parallel counterpart of Engine. Create
// one with NewShardedEngine, populate the shards (Shard/At/Send), then call
// Run once. The sequential Engine remains the right tool for small runs and
// is the differential-testing oracle for this one.
type ShardedEngine struct {
	shards    []*Shard
	lookahead time.Duration
	stopped   atomic.Bool
	windows   uint64
	merge     []xmsg // coordinator scratch for barrier merges

	panicMu  sync.Mutex
	panicked *shardPanic // first panic recovered from a worker, re-raised by Run
}

// shardPanic wraps a panic that escaped an event callback on a shard. proc
// is non-empty when the panic escaped the body of a hosted process.
type shardPanic struct {
	shard int
	proc  string
	value any
}

// NewShardedEngine returns an engine with nshards empty shards and the
// given conservative lookahead: the minimum virtual delay of any
// cross-shard interaction, typically flow.MinLatency of the topology links
// that cross the shard partition. The lookahead must be positive — a
// zero-lookahead partition cannot run conservatively in parallel; use the
// sequential Engine instead.
func NewShardedEngine(nshards int, lookahead time.Duration) *ShardedEngine {
	if nshards < 1 {
		panic("sim: sharded engine needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: sharded engine needs a positive lookahead")
	}
	se := &ShardedEngine{lookahead: lookahead}
	se.shards = make([]*Shard, nshards)
	for i := range se.shards {
		s := &Shard{
			id:     i,
			eng:    se,
			outbox: make([][]xmsg, nshards),
			work:   make(chan time.Duration),
		}
		s.initHost(&s.eventQueue, &se.stopped)
		se.shards[i] = s
	}
	return se
}

// Shards returns the number of shards.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Shard returns shard i.
func (se *ShardedEngine) Shard(i int) *Shard { return se.shards[i] }

// Lookahead returns the engine's conservative lookahead.
func (se *ShardedEngine) Lookahead() time.Duration { return se.lookahead }

// Windows returns the number of barrier rounds Run has executed.
func (se *ShardedEngine) Windows() uint64 { return se.windows }

// Events returns the total events executed across all shards.
func (se *ShardedEngine) Events() uint64 {
	var n uint64
	for _, s := range se.shards {
		n += s.events
	}
	return n
}

// ProcSwitches returns the total process dispatches across all shards.
func (se *ShardedEngine) ProcSwitches() uint64 {
	var n uint64
	for _, s := range se.shards {
		n += s.switches
	}
	return n
}

// ProcsStarted returns the total processes started across all shards.
func (se *ShardedEngine) ProcsStarted() uint64 {
	var n uint64
	for _, s := range se.shards {
		n += s.started
	}
	return n
}

// SleepsElided returns the total elided sleeps across all shards.
func (se *ShardedEngine) SleepsElided() uint64 {
	var n uint64
	for _, s := range se.shards {
		n += s.elided
	}
	return n
}

// TimersCancelled returns the total cancelled events across all shards.
func (se *ShardedEngine) TimersCancelled() uint64 {
	var n uint64
	for _, s := range se.shards {
		n += s.TimersCancelled()
	}
	return n
}

// HeapDepthMax returns the deepest event heap any one shard ever held.
func (se *ShardedEngine) HeapDepthMax() int {
	var d int
	for _, s := range se.shards {
		d = max(d, s.depthMax)
	}
	return d
}

// Stop makes Run return once every shard finishes its current event.
func (se *ShardedEngine) Stop() { se.stopped.Store(true) }

// Run dispatches events until every shard's queue is empty or Stop is
// called, and returns the final virtual time (the latest event time any
// shard reached). Events may only be scheduled onto a shard before Run or
// from callbacks executing on that shard; cross-shard scheduling goes
// through Send.
func (se *ShardedEngine) Run() time.Duration {
	n := len(se.shards)
	done := make(chan struct{}, n)
	for _, s := range se.shards {
		go func(s *Shard) {
			for until := range s.work {
				s.window(until)
				done <- struct{}{}
			}
		}(s)
	}
	for !se.stopped.Load() {
		// Globally earliest pending event; nothing pending means the
		// simulation has drained.
		earliest := maxDuration
		for _, s := range se.shards {
			if ev := s.peek(); ev != nil && ev.at < earliest {
				earliest = ev.at
			}
		}
		if earliest == maxDuration {
			break
		}
		until := earliest + se.lookahead
		// Parallel phase: every shard runs its window.
		for _, s := range se.shards {
			s.work <- until
		}
		for range se.shards {
			<-done
		}
		se.windows++
		if se.panicked != nil {
			break
		}
		// Barrier phase: exchange buffered cross-shard events.
		se.exchange()
	}
	for _, s := range se.shards {
		close(s.work)
		s.releaseDaemons()
	}
	if p := se.panicked; p != nil {
		// Re-raise on the caller's goroutine: a panic that escapes an event
		// callback on a worker would otherwise kill the whole process with no
		// chance for the caller (or a test) to observe it. A panic from a
		// hosted process names the process (an MPI rank) and the shard.
		if p.proc != "" {
			panic(fmt.Sprintf("sim: shard %d: process %q panicked: %v", p.shard, p.proc, p.value))
		}
		panic(fmt.Sprintf("sim: shard %d: %v", p.shard, p.value))
	}
	var end time.Duration
	if !se.stopped.Load() {
		// Deadlock check, mirroring Engine.Run: the queues drained but some
		// hosted non-daemon process never finished — nothing can wake it.
		blocked := 0
		var names []string
		for _, s := range se.shards {
			if s.nprocs > 0 {
				blocked += s.nprocs
				for _, nm := range s.blockedProcs() {
					names = append(names, fmt.Sprintf("%s (shard %d)", nm, s.id))
				}
			}
		}
		if blocked > 0 {
			panic(fmt.Sprintf("sim: deadlock: %d process(es) still blocked with no pending events: %s",
				blocked, blockedProcList(names)))
		}
	}
	for _, s := range se.shards {
		if s.now > end {
			end = s.now
		}
	}
	return end
}

// exchange drains every shard's outboxes into the destination heaps. For
// each destination the incoming messages are ordered by (time, source
// shard, source sequence) before being assigned destination sequence
// numbers, so the merged schedule does not depend on goroutine timing.
func (se *ShardedEngine) exchange() {
	for dst, d := range se.shards {
		in := se.merge[:0]
		for _, src := range se.shards {
			if out := src.outbox[dst]; len(out) > 0 {
				in = append(in, out...)
				src.outbox[dst] = out[:0]
			}
		}
		if len(in) == 0 {
			continue
		}
		sort.Slice(in, func(i, j int) bool {
			if in[i].at != in[j].at {
				return in[i].at < in[j].at
			}
			if in[i].src != in[j].src {
				return in[i].src < in[j].src
			}
			return in[i].seq < in[j].seq
		})
		for i := range in {
			d.schedule(in[i].at, nil, in[i].fn, in[i].arg)
			in[i].fn, in[i].arg = nil, nil
		}
		se.merge = in[:0]
	}
}
