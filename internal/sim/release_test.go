package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"scimpich/internal/allocwin"
)

// A drained run ends its daemons: device-style servers that are still
// blocked when Run returns have left their bodies afterwards, their
// coroutines are back in the pool, and an engine that lost its daemons
// refuses further work.

// liveGoroutines counts the goroutines outside the coroutine pool: an idle
// pooled coroutine is a parked goroutine, which pins nothing of the run that
// last used it (TestFinishedEngineIsCollected).
func liveGoroutines() int { return runtime.NumGoroutine() - IdleCoroutines() }

// waitGoroutines waits for the goroutines outside the pool to come back down
// to their count taken before the run (liveGoroutines): a goroutine that
// ended has handed control back before Run returns, but may not have left
// the scheduler yet.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for liveGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outside the coroutine pool left, %d before the run", liveGoroutines(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// spawnServers starts a daemon that never gets a request and one that is
// parked again after serving three. Both are woken at once, so both have a
// goroutine for Run to end.
func spawnServers(e *Engine, served *int) {
	idle, busy := NewChan(0), NewChan(4)
	e.GoDaemon("idle", func(p *Proc) { p.Recv(idle) }).Wake()
	e.GoDaemon("busy", func(p *Proc) {
		for {
			p.Recv(busy)
			p.Sleep(time.Microsecond)
			*served++
		}
	}).Wake()
	e.Go("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Send(busy, i)
		}
	})
}

func TestRunReleasesDaemons(t *testing.T) {
	before := liveGoroutines()
	e := NewEngine()
	served := 0
	spawnServers(e, &served)
	e.Run()
	if served != 3 {
		t.Errorf("served %d requests, want 3", served)
	}
	waitGoroutines(t, before)
}

// TestFinishedEngineIsCollected: what the goroutine count of a leak check
// stands for. A finished run pins nothing of its engine: the coroutines its
// processes ran on, released daemons' included, went back to the pool holding
// no process and no body, so once the engine is unreachable the collector
// takes it, while those coroutines stay pooled.
func TestFinishedEngineIsCollected(t *testing.T) {
	e := NewEngine()
	var ran []*coroutine
	record := func(p *Proc) { ran = append(ran, p.co) }
	served := 0
	spawnServers(e, &served)
	e.GoDaemon("recorded-daemon", func(p *Proc) {
		record(p)
		p.Park()
	}).Wake()
	e.Go("recorded-worker", func(p *Proc) {
		record(p)
		p.Sleep(time.Microsecond)
	})
	e.Run()
	engine := weak.Make(e)
	e = nil
	runtime.GC()
	runtime.GC()
	if engine.Value() != nil {
		t.Error("a finished engine is still reachable after two collections")
	}
	idle := idleCoroutines()
	for i, co := range ran {
		if !idle[co] || co.p != nil {
			t.Errorf("coroutine %d of the finished run: pooled %v, holds process %v; want pooled and none", i, idle[co], co.p)
		}
	}
}

// TestIdleDaemonCostsNothing: a daemon starts at its first piece of work.
// Until then it has no goroutine and nothing queued, and costs its Proc and a
// slot of the engine's registry. Its first Resume runs the body from the top
// inside the resuming event, at that event's instant.
func TestIdleDaemonCostsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	body := func(p *Proc) { t.Error("the body of a daemon nothing woke ran") }
	win := allocwin.New(t)
	win.Open()
	for i := 0; i < 100; i++ {
		e.GoDaemon("idle", body)
	}
	win.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("100 idle daemons started %d goroutines", n-before)
	}
	per := float64(win.Objects()) / 100
	t.Logf("an idle daemon: %.2f objects", per)
	if per >= 1.2 && !allocwin.RaceEnabled {
		t.Errorf("an idle daemon costs %.2f objects, want its Proc and the registry's growth (< 1.2)", per)
	}
	if end := e.Run(); end != 0 || e.Events() != 0 || e.ProcSwitches() != 0 || e.ProcsStarted() != 0 {
		t.Errorf("run of 100 idle daemons: ended at %v after %d events, %d switches, %d processes started; want 0s and none",
			end, e.Events(), e.ProcSwitches(), e.ProcsStarted())
	}

	e = NewEngine()
	var ranAt time.Duration = -1
	server := e.GoDaemon("server", func(p *Proc) {
		ranAt = p.Now()
		p.Park()
	})
	e.After(5*time.Microsecond, func() {
		events := e.Events()
		server.Resume()
		if ranAt != 5*time.Microsecond || e.Events() != events || e.ProcsStarted() != 1 {
			t.Errorf("first Resume at 5µs: body ran at %v, %d further events, %d processes started; want 5µs, 0, 1",
				ranAt, e.Events()-events, e.ProcsStarted())
		}
	})
	e.Run()
}

func TestStopReleasesUndispatchedDaemon(t *testing.T) {
	before := liveGoroutines()
	e := NewEngine()
	e.Stop()
	e.GoDaemon("never-started", func(p *Proc) { t.Error("body ran") })
	e.Run()
	waitGoroutines(t, before)
}

func mustPanicWith(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("%s did not panic", what)
		} else if s := fmt.Sprint(r); !strings.Contains(s, want) {
			t.Errorf("%s panicked with %q, want it to contain %q", what, s, want)
		}
	}()
	fn()
}

func TestDrainedEngineRefusesReuse(t *testing.T) {
	const rule = "a drained run ends its daemons"
	e := NewEngine()
	e.GoDaemon("server", func(p *Proc) { p.Recv(NewChan(0)) })
	e.Run()
	mustPanicWith(t, "second Run", rule, func() { e.Run() })
	mustPanicWith(t, "Go after Run", rule, func() { e.Go("late", func(*Proc) {}) })

	// Without daemons nothing was ended, and an engine stays reusable.
	plain := NewEngine()
	ticks := 0
	plain.Go("a", func(p *Proc) { ticks++ })
	plain.Run()
	plain.Go("b", func(p *Proc) { ticks++ })
	plain.Run()
	if ticks != 2 {
		t.Errorf("reused engine ran %d procs, want 2", ticks)
	}
}

// Failure reports are unchanged by the release: a proc panic and a deadlock
// surface with the same messages when daemons are parked beside them.
func TestFailuresWithParkedDaemons(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.GoDaemon("server", func(p *Proc) { p.Recv(NewChan(0)) })
		return e
	}
	e := build()
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	mustPanicWith(t, "proc panic", `process "boom" panicked: kaboom`, func() { e.Run() })

	e = build()
	e.Go("stuck", func(p *Proc) { p.Recv(NewChan(0)) })
	mustPanicWith(t, "deadlock", "deadlock: 1 process(es) still blocked", func() { e.Run() })
}

// runEnding runs e on a goroutine of its own and says how Run ended: it
// returned, it panicked (the panic's text), its goroutine ended without
// either, as runtime.Goexit ends it, or it did not end within 5 s.
func runEnding(e *Engine) string {
	done := make(chan string, 1)
	go func() {
		how := "goroutine ended"
		defer func() {
			if r := recover(); r != nil {
				how = fmt.Sprint(r)
			}
			done <- how
		}()
		e.Run()
		how = "returned"
	}()
	select {
	case how := <-done:
		return how
	case <-time.After(5 * time.Second):
		return "hangs"
	}
}

// TestHowAProcessEnds: however a process's body ends, Run surfaces it on the
// engine's goroutine, ends the daemon parked beside it by running its
// deferred calls, and leaves the coroutine pool whole: no pooled coroutine
// holds a process, and the next run starts 72 processes (64 that return at
// once and 8 daemons) without allocating. A runtime.Goexit in a body, which
// is what t.FailNow does, ends Run's goroutine as it would end the body's.
func TestHowAProcessEnds(t *testing.T) {
	win := allocwin.New(t)
	warm := NewEngine()
	spawnWorkersAndDaemons(warm, sleepOnce)
	warm.Run()
	for _, row := range []struct {
		name string
		body func(p *Proc)
		want string
	}{
		{"returns beside a released daemon", sleepOnce, "returned"},
		{"panics", func(p *Proc) {
			p.Sleep(time.Microsecond)
			panic("kaboom")
		}, `sim: process "x" panicked: kaboom`},
		{"calls Goexit", func(p *Proc) {
			p.Sleep(time.Microsecond)
			runtime.Goexit()
		}, "goroutine ended"},
	} {
		e := NewEngine()
		released := false
		e.GoDaemon("server", func(p *Proc) {
			defer func() { released = true }()
			p.Park()
		}).Wake()
		e.Go("x", row.body)
		if got := runEnding(e); got != row.want {
			t.Errorf("%s: Run ended as %q, want %q", row.name, got, row.want)
		}
		if !released {
			t.Errorf("%s: the released daemon's deferred call did not run", row.name)
		}
		for co := range idleCoroutines() {
			if co.p != nil {
				t.Errorf("%s: a pooled coroutine holds process %q", row.name, co.p.name)
			}
		}

		next := NewEngine()
		spawnWorkersAndDaemons(next, func(*Proc) {})
		win.Open()
		next.Run()
		win.Close()
		if got := next.ProcsStarted(); got != 72 || win.Objects() != 0 && !allocwin.RaceEnabled {
			t.Errorf("%s: the next run started %d processes in %d objects, want 72 in none", row.name, got, win.Objects())
		}
	}
}
