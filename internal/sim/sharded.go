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
// windows only the coordinator does. Shard implements Scheduler and Locale:
// it runs event callbacks, and refuses processes (see Go).
type Shard struct {
	eventQueue
	id     int
	eng    *ShardedEngine
	outbox [][]xmsg // per-destination buffers, drained at the barrier
}

// ID returns the shard's index within its engine.
func (s *Shard) ID() int { return s.id }

// shardProcRule is why a shard refuses processes.
const shardProcRule = "only the sequential Engine runs processes; a shard runs event callbacks, so build a world that has processes on a sequential fabric"

// Go panics: a Shard is a Locale, and so a Host, but only the sequential
// Engine runs processes.
func (s *Shard) Go(name string, body func(p *Proc)) *Proc {
	panic(fmt.Sprintf("sim: process %q spawned on shard %d: %s", name, s.id, shardProcRule))
}

// GoDaemon panics, as Go does.
func (s *Shard) GoDaemon(name string, body func(p *Proc)) *Proc { return s.Go(name, body) }

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
// goroutine.
func (s *Shard) window(until time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			sp := &shardPanic{shard: s.id, value: r}
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
// Run; a drained engine runs again the events scheduled since. The
// sequential Engine remains the right tool for small runs and is the
// differential-testing oracle for this one.
type ShardedEngine struct {
	shards    []*Shard
	lookahead time.Duration
	stopped   atomic.Bool
	windows   uint64
	merge     []xmsg // coordinator scratch for barrier merges

	panicMu  sync.Mutex
	panicked *shardPanic // first panic recovered from a worker, re-raised by Run
}

// shardPanic wraps a panic that escaped an event callback on a shard.
type shardPanic struct {
	shard int
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
		se.shards[i] = &Shard{id: i, eng: se, outbox: make([][]xmsg, nshards)}
	}
	return se
}

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

// ProcSwitches, ProcsStarted and SleepsElided return 0: a shard runs no
// processes (see Shard.Go).
func (se *ShardedEngine) ProcSwitches() uint64 { return 0 }
func (se *ShardedEngine) ProcsStarted() uint64 { return 0 }
func (se *ShardedEngine) SleepsElided() uint64 { return 0 }

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
	work := make([]chan time.Duration, n) // one worker per shard, for this Run
	for i, s := range se.shards {
		work[i] = make(chan time.Duration)
		go func(s *Shard, work <-chan time.Duration) {
			for until := range work {
				s.window(until)
				done <- struct{}{}
			}
		}(s, work[i])
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
		for _, w := range work {
			w <- until
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
	for _, w := range work {
		close(w)
	}
	if p := se.panicked; p != nil {
		// Re-raise on the caller's goroutine: a panic that escapes an event
		// callback on a worker would otherwise kill the whole process with no
		// chance for the caller (or a test) to observe it.
		panic(fmt.Sprintf("sim: shard %d: %v", p.shard, p.value))
	}
	var end time.Duration
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
