package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A drained run ends its daemons: the goroutines of device-style servers
// that are still blocked when Run returns are gone afterwards, and a host
// that lost its daemons refuses further work.

// waitGoroutines waits for the goroutine count to come back down to the
// count taken before the run: an ended goroutine has handed control back
// before Run returns, but may not have left the scheduler yet.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// spawnServers starts a daemon that never gets a request and one that is
// parked again after serving three.
func spawnServers(h Host, served *int) {
	idle, busy := NewChan(0), NewChan(4)
	h.GoDaemon("idle", func(p *Proc) { p.Recv(idle) })
	h.GoDaemon("busy", func(p *Proc) {
		for {
			p.Recv(busy)
			p.Sleep(time.Microsecond)
			*served++
		}
	})
	h.Go("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Send(busy, i)
		}
	})
}

func TestRunReleasesDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, shards := range []int{0, 2, 4} {
		var f Fabric = NewLocalFabric(1, time.Microsecond)
		if shards > 0 {
			f = NewShardedEngine(shards, time.Microsecond)
		}
		served := make([]int, f.Locales()) // shards run in parallel: one counter each
		for i := range served {
			spawnServers(f.Locale(i), &served[i])
		}
		f.Run()
		for i, n := range served {
			if n != 3 {
				t.Errorf("shards=%d: locale %d served %d requests, want 3", shards, i, n)
			}
		}
		waitGoroutines(t, before)
	}
}

func TestStopReleasesUndispatchedDaemon(t *testing.T) {
	before := runtime.NumGoroutine()
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

	se := NewShardedEngine(2, time.Microsecond)
	se.Shard(1).GoDaemon("server", func(p *Proc) { p.Recv(NewChan(0)) })
	se.Run()
	mustPanicWith(t, "shard Go after Run", rule, func() { se.Shard(1).Go("late", func(*Proc) {}) })

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
	for _, shards := range []int{0, 2} {
		build := func() Fabric {
			var f Fabric = NewLocalFabric(1, time.Microsecond)
			if shards > 0 {
				f = NewShardedEngine(shards, time.Microsecond)
			}
			f.Locale(0).GoDaemon("server", func(p *Proc) { p.Recv(NewChan(0)) })
			return f
		}
		f := build()
		f.Locale(0).Go("boom", func(p *Proc) {
			p.Sleep(time.Microsecond)
			panic("kaboom")
		})
		mustPanicWith(t, "proc panic", `process "boom" panicked: kaboom`, func() { f.Run() })

		f = build()
		f.Locale(0).Go("stuck", func(p *Proc) { p.Recv(NewChan(0)) })
		mustPanicWith(t, "deadlock", "deadlock: 1 process(es) still blocked", func() { f.Run() })
	}
}
