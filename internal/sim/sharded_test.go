package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestShardedBasics: local events run in time order, the clock advances,
// final time is the last event anywhere.
func TestShardedBasics(t *testing.T) {
	se := NewShardedEngine(2, time.Microsecond)
	var order []string
	se.Shard(0).At(2*time.Microsecond, func() { order = append(order, "a2") })
	se.Shard(0).At(1*time.Microsecond, func() { order = append(order, "a1") })
	se.Shard(1).At(3*time.Microsecond, func() { order = append(order, "b3") })
	end := se.Run()
	// Shards run concurrently so cross-shard append order between windows is
	// defined by the window sequence: a1 (window 1), a2 (window 2), b3.
	want := []string{"a1", "a2", "b3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if end != 3*time.Microsecond {
		t.Fatalf("end = %v, want 3µs", end)
	}
	if se.Events() != 3 {
		t.Fatalf("events = %d, want 3", se.Events())
	}
	if se.Windows() == 0 {
		t.Fatal("no windows counted")
	}
}

// TestShardedCrossSend: a cross-shard send lands at the right time on the
// right shard; a send below the lookahead panics.
func TestShardedCrossSend(t *testing.T) {
	se := NewShardedEngine(2, time.Microsecond)
	var got time.Duration
	se.Shard(0).At(time.Microsecond, func() {
		se.Shard(0).Send(1, 5*time.Microsecond, func(any) {
			got = se.Shard(1).Now()
		}, nil)
	})
	se.Run()
	if got != 6*time.Microsecond {
		t.Fatalf("arrival at %v, want 6µs", got)
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "below lookahead") {
			t.Fatalf("expected lookahead panic, got %v", r)
		}
	}()
	se2 := NewShardedEngine(2, time.Millisecond)
	se2.Shard(0).At(0, func() {
		se2.Shard(0).Send(1, time.Microsecond, func(any) {}, nil)
	})
	se2.Run()
}

// TestShardedSelfSend: a send to the own shard is an ordinary local event
// with no lookahead constraint.
func TestShardedSelfSend(t *testing.T) {
	se := NewShardedEngine(2, time.Millisecond)
	ran := false
	se.Shard(0).At(0, func() {
		se.Shard(0).Send(0, time.Nanosecond, func(any) { ran = true }, nil)
	})
	se.Run()
	if !ran {
		t.Fatal("self-send did not run")
	}
}

// pingProgram runs a deterministic multi-shard token-passing program and
// returns a trace of (time, shard, hop) tuples plus the final time.
func pingProgram(shards, hops int, lookahead time.Duration) (string, time.Duration) {
	se := NewShardedEngine(shards, lookahead)
	var sb strings.Builder
	var hop func(arg any)
	hop = func(arg any) {
		h := arg.(int)
		s := se.Shard(h % shards)
		fmt.Fprintf(&sb, "%d@%v;", h, s.Now())
		if h+1 < hops {
			s.Send((h+1)%shards, lookahead+time.Duration(h%3)*time.Microsecond, hop, h+1)
		}
	}
	se.Shard(0).AfterCall(0, hop, 0)
	end := se.Run()
	return sb.String(), end
}

// TestShardedDeterminism: repeated runs produce the identical schedule.
func TestShardedDeterminism(t *testing.T) {
	trace1, end1 := pingProgram(4, 200, 3*time.Microsecond)
	for i := 0; i < 10; i++ {
		trace2, end2 := pingProgram(4, 200, 3*time.Microsecond)
		if trace1 != trace2 || end1 != end2 {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, trace1, trace2)
		}
	}
}

// TestShardedMergeOrder: same-time cross-shard arrivals from different
// sources are delivered in (time, source shard, source seq) order.
func TestShardedMergeOrder(t *testing.T) {
	se := NewShardedEngine(3, time.Microsecond)
	var got []int
	recv := func(arg any) { got = append(got, arg.(int)) }
	// Shards 1 and 2 both send to shard 0, arriving at the same instant.
	se.Shard(2).At(0, func() { se.Shard(2).Send(0, 4*time.Microsecond, recv, 20) })
	se.Shard(2).At(0, func() { se.Shard(2).Send(0, 4*time.Microsecond, recv, 21) })
	se.Shard(1).At(0, func() { se.Shard(1).Send(0, 4*time.Microsecond, recv, 10) })
	se.Run()
	want := []int{10, 20, 21}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
}

// TestShardedStop: Stop ends the run early.
func TestShardedStop(t *testing.T) {
	se := NewShardedEngine(2, time.Microsecond)
	n := 0
	var tick func(any)
	tick = func(any) {
		n++
		if n == 5 {
			se.Stop()
		}
		se.Shard(0).AfterCall(time.Microsecond, tick, nil)
	}
	se.Shard(0).AfterCall(0, tick, nil)
	se.Run()
	if n != 5 {
		t.Fatalf("executed %d ticks, want 5", n)
	}
}

// TestShardedTimerCancel: Cancel works on shard timers, including from a
// different window than the one that created them.
func TestShardedTimerCancel(t *testing.T) {
	se := NewShardedEngine(1, time.Microsecond)
	fired := false
	tm := se.Shard(0).After(10*time.Microsecond, func() { fired = true })
	se.Shard(0).After(time.Microsecond, func() { tm.Cancel() })
	se.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

// TestSeqFabricOracle: the same Locale program runs on the sequential
// fabric and the sharded engine with identical per-actor behaviour.
func TestSeqFabricOracle(t *testing.T) {
	run := func(f Fabric) (string, time.Duration) {
		var sb strings.Builder
		var hop func(arg any)
		hops := 100
		hop = func(arg any) {
			h := arg.(int)
			l := f.Locale(h % f.Locales())
			fmt.Fprintf(&sb, "%d@%v;", h, l.Now())
			if h+1 < hops {
				l.Send((h+1)%f.Locales(), f.Lookahead()+time.Duration(h%2)*time.Microsecond, hop, h+1)
			}
		}
		f.Locale(0).AfterCall(0, hop, 0)
		end := f.Run()
		return sb.String(), end
	}
	la := 2 * time.Microsecond
	seqTrace, seqEnd := run(NewSeqFabric(NewEngine(), 4, la))
	for _, shards := range []int{1, 2, 4} {
		shTrace, shEnd := run(NewShardedEngine(shards, la))
		if shards == 4 && (shTrace != seqTrace || shEnd != seqEnd) {
			t.Fatalf("sharded(4) diverged from sequential oracle:\n%s\nvs\n%s", shTrace, seqTrace)
		}
		if shEnd != seqEnd {
			t.Fatalf("sharded(%d) end %v != sequential %v", shards, shEnd, seqEnd)
		}
	}
}

// TestShardedWindowSafety: a window never executes an event that a
// not-yet-delivered cross-shard message could precede — arrivals always
// execute at their exact timestamps.
func TestShardedWindowSafety(t *testing.T) {
	const lookahead = time.Microsecond
	se := NewShardedEngine(2, lookahead)
	var log []string
	// Shard 1 has a long-scheduled local event; shard 0 sends a message
	// that lands just before it. The arrival must run first.
	se.Shard(1).At(10*time.Microsecond, func() { log = append(log, "local@10") })
	se.Shard(0).At(8*time.Microsecond, func() {
		se.Shard(0).Send(1, lookahead, func(any) {
			log = append(log, fmt.Sprintf("arrival@%v", se.Shard(1).Now()))
		}, nil)
	})
	se.Run()
	want := "[arrival@9µs local@10]"
	if fmt.Sprint(log) != want {
		t.Fatalf("log = %v, want %s", log, want)
	}
}

// TestShardRefusesProcesses: only the sequential Engine runs processes. A
// shard is a Locale, and so has Go and GoDaemon, but both panic naming the
// rule, before anything is queued.
func TestShardRefusesProcesses(t *testing.T) {
	se := NewShardedEngine(2, time.Microsecond)
	body := func(p *Proc) { t.Error("a process body ran on a shard") }
	mustPanicWith(t, "Shard.Go", shardProcRule, func() { se.Shard(1).Go("rank", body) })
	mustPanicWith(t, "Shard.GoDaemon", shardProcRule, func() { se.Locale(0).GoDaemon("device", body) })
	if end := se.Run(); end != 0 || se.Events() != 0 {
		t.Errorf("refused spawns left work behind: ended at %v after %d events", end, se.Events())
	}
}

// TestShardedEngineRunsTwice: a drained sharded engine runs again what was
// scheduled since, like a sequential fabric does, and a Run with nothing
// pending returns at once. Both fabrics end each run at the same instant
// after the same number of events. The shards' clocks differ after a run, so
// the next run's first events are placed at the end instant, not relative to
// a shard's clock.
func TestShardedEngineRunsTwice(t *testing.T) {
	const la = time.Microsecond
	schedule := func(f Fabric, start time.Duration, hops int) {
		n := f.Locales()
		hop := make([]func(any), n) // hop[i] runs on locale i
		for i := range hop {
			next := (i + 1) % n
			hop[i] = func(arg any) {
				if left := arg.(int); left > 0 {
					f.Locale(i).Send(next, la+time.Duration(left)*time.Nanosecond, hop[next], left-1)
				}
			}
		}
		for i := range hop {
			f.Locale(i).At(start+time.Duration(i)*time.Nanosecond, func() { hop[i](hops) })
		}
	}
	sh, seq := Fabric(NewShardedEngine(2, la)), NewSeqFabric(NewEngine(), 2, la)
	var end time.Duration
	for run, hops := range []int{5, 3, 0} {
		if hops > 0 {
			schedule(sh, end, hops)
			schedule(seq, end, hops)
		}
		a, b := sh.Run(), seq.Run()
		if a != b || sh.Events() != seq.Events() {
			t.Errorf("run %d: sharded ended at %v after %d events, sequential at %v after %d",
				run+1, a, sh.Events(), b, seq.Events())
		}
		end = b
	}
	if want := uint64(2 * (6 + 4)); seq.Events() != want {
		t.Errorf("%d events over the runs, want %d", seq.Events(), want)
	}
}
