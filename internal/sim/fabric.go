package sim

import (
	"fmt"
	"time"
)

// Locale is one scheduling domain of a partitioned simulation program: a
// shard of a ShardedEngine, or a logical slice of a sequential Engine. A
// program written against Locales (actor and process state confined to one
// locale, cross-locale interaction only through Send with at least the
// fabric's lookahead of delay) runs unchanged on either engine, which is
// what makes the sequential engine a differential-testing oracle for the
// sharded one. A Locale is a Host, but only a locale of a sequential fabric
// runs cooperative Procs, so a full protocol world (the MPI stack) is built
// on one; a shard refuses them (see Shard.Go).
type Locale interface {
	Host
	ID() int
	Send(dst int, d time.Duration, fn func(any), arg any)
}

// Fabric is a set of locales plus the engine that drives them.
type Fabric interface {
	Locales() int
	Locale(i int) Locale
	Lookahead() time.Duration
	Run() time.Duration
	Events() uint64
	ProcSwitches() uint64
	ProcsStarted() uint64
	SleepsElided() uint64
	TimersCancelled() uint64
	HeapDepthMax() int
	Stop()
}

// Locales returns the shard count (ShardedEngine implements Fabric).
func (se *ShardedEngine) Locales() int { return len(se.shards) }

// Locale returns shard i as a Locale.
func (se *ShardedEngine) Locale(i int) Locale { return se.shards[i] }

// seqFabric presents a sequential Engine as n locales sharing one event
// heap. Send enforces the same lookahead contract as the sharded engine so
// that a program debugged here cannot violate causality there.
type seqFabric struct {
	e         *Engine
	lookahead time.Duration
	locales   []seqLocale
}

// NewLocalFabric is the blessed constructor for single-machine harnesses:
// a fabric of n locales over a fresh sequential Engine. Benchmarks and
// tests that previously called NewEngine directly construct their
// components on Locale(i) of this fabric instead, so the same harness code
// moves to a ShardedEngine by swapping only the fabric.
func NewLocalFabric(n int, lookahead time.Duration) Fabric {
	return NewSeqFabric(NewEngine(), n, lookahead)
}

// NewSeqFabric wraps e as a fabric of n locales with the given lookahead.
func NewSeqFabric(e *Engine, n int, lookahead time.Duration) Fabric {
	if n < 1 {
		panic("sim: fabric needs at least one locale")
	}
	f := &seqFabric{e: e, lookahead: lookahead}
	f.locales = make([]seqLocale, n)
	for i := range f.locales {
		f.locales[i] = seqLocale{f: f, id: i}
	}
	return f
}

func (f *seqFabric) Locales() int             { return len(f.locales) }
func (f *seqFabric) Locale(i int) Locale      { return &f.locales[i] }
func (f *seqFabric) Lookahead() time.Duration { return f.lookahead }
func (f *seqFabric) Run() time.Duration       { return f.e.Run() }
func (f *seqFabric) Events() uint64           { return f.e.Events() }
func (f *seqFabric) ProcSwitches() uint64     { return f.e.ProcSwitches() }
func (f *seqFabric) ProcsStarted() uint64     { return f.e.ProcsStarted() }
func (f *seqFabric) SleepsElided() uint64     { return f.e.SleepsElided() }
func (f *seqFabric) TimersCancelled() uint64  { return f.e.TimersCancelled() }
func (f *seqFabric) HeapDepthMax() int        { return f.e.HeapDepthMax() }
func (f *seqFabric) Stop()                    { f.e.Stop() }

type seqLocale struct {
	f  *seqFabric
	id int
}

func (l *seqLocale) ID() int            { return l.id }
func (l *seqLocale) Now() time.Duration { return l.f.e.Now() }

func (l *seqLocale) At(t time.Duration, fn func()) Timer { return l.f.e.At(t, fn) }

func (l *seqLocale) After(d time.Duration, fn func()) Timer { return l.f.e.After(d, fn) }

func (l *seqLocale) AfterCall(d time.Duration, fn func(any), arg any) Timer {
	return l.f.e.AfterCall(d, fn, arg)
}

func (l *seqLocale) Go(name string, body func(p *Proc)) *Proc { return l.f.e.Go(name, body) }

func (l *seqLocale) GoDaemon(name string, body func(p *Proc)) *Proc {
	return l.f.e.GoDaemon(name, body)
}

func (l *seqLocale) Send(dst int, d time.Duration, fn func(any), arg any) {
	if dst < 0 || dst >= len(l.f.locales) {
		panic(fmt.Sprintf("sim: locale %d sending to unknown locale %d", l.id, dst))
	}
	if dst != l.id && d < l.f.lookahead {
		panic(fmt.Sprintf("sim: cross-locale send %d->%d with delay %v below lookahead %v",
			l.id, dst, d, l.f.lookahead))
	}
	l.f.e.AfterCall(d, fn, arg)
}
