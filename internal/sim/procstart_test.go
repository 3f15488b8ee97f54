package sim

import (
	"runtime"
	"testing"
	"time"

	"scimpich/internal/allocwin"
)

// A process's first dispatch takes its resume channel from resumeChans and
// starts a capture-free goroutine; its goroutine gives the channel back when
// it ends. These tests pin what that saves and where it must not cost.

// sleepOnce is a worker body that blocks once, so every worker of a program
// is alive at once, and then runs to completion.
func sleepOnce(p *Proc) { p.Sleep(time.Microsecond) }

// parkForever is a daemon body that blocks until Run ends it.
func parkForever(p *Proc) { p.Park() }

func wakeAll(arg any) {
	for _, p := range arg.([]*Proc) {
		p.Wake()
	}
}

// idleResume returns the channels resumeChans holds.
func idleResume() map[chan struct{}]bool {
	l := &resumeChans
	l.Lock()
	defer l.Unlock()
	idle := make(map[chan struct{}]bool, l.n)
	for _, c := range l.free[:l.n] {
		idle[c] = true
	}
	return idle
}

// spawnWorkersAndDaemons spawns 64 workers and 8 daemons that are woken once
// the workers have finished, so at most 64 processes are alive at once.
func spawnWorkersAndDaemons(e *Engine) {
	for i := 0; i < 64; i++ {
		e.Go("worker", sleepOnce)
	}
	daemons := make([]*Proc, 8)
	for i := range daemons {
		daemons[i] = e.GoDaemon("daemon", parkForever)
	}
	e.AfterCall(2*time.Microsecond, wakeAll, daemons)
}

// TestAllocsProcStartWarm: once the program has run processes, a run that
// starts 64 processes which finish and 8 daemons which Run ends allocates
// nothing — no resume channel and no go-statement closure. The spawns come
// before the window, so it holds what starting and ending them costs.
func TestAllocsProcStartWarm(t *testing.T) {
	win := allocwin.New(t)
	warm := NewEngine()
	spawnWorkersAndDaemons(warm)
	warm.Run()

	e := NewEngine()
	spawnWorkersAndDaemons(e)
	win.Open()
	e.Run()
	win.Close()
	t.Logf("starting 72 processes on a warm program: %d objects", win.Objects())
	if got := e.ProcsStarted(); got != 72 {
		t.Errorf("%d processes started, want 72", got)
	}
	if win.Objects() != 0 && !allocwin.RaceEnabled {
		t.Errorf("starting and ending 72 processes allocated %d objects, want none", win.Objects())
	}
}

// TestAllocsProcEndsAtOnce: a process whose body returns without blocking
// ends its goroutine before its engine goes on, so the next start reuses the
// goroutine's record: 64 of them in a row leave no goroutine behind, even on
// one P with nothing else to run. An engine that blocked on handing the process
// over would leave every one of them runnable, each holding its record.
func TestAllocsProcEndsAtOnce(t *testing.T) {
	allocwin.New(t)
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Go("returns", func(*Proc) {})
	}
	e.Run()
	if n := runtime.NumGoroutine() - before; n != 0 {
		t.Errorf("%d goroutines of finished processes still there when Run returned", n)
	}
}

// TestAllocsResumeReusedAcrossEngines: the channels the processes of one
// engine gave back are the ones the next engine's processes take.
func TestAllocsResumeReusedAcrossEngines(t *testing.T) {
	run := func() []chan struct{} {
		e := NewEngine()
		got := make([]chan struct{}, 16)
		for i := range got {
			e.Go("worker", func(p *Proc) {
				got[i] = p.resume
				p.Sleep(time.Microsecond)
			})
		}
		e.Run()
		return got
	}
	first := run()
	idle := idleResume()
	for i, c := range first {
		if !idle[c] {
			t.Fatalf("worker %d of the first engine did not give its channel back", i)
		}
	}
	reused := make(map[chan struct{}]bool, len(first))
	for _, c := range first {
		reused[c] = true
	}
	for i, c := range run() {
		if !reused[c] {
			t.Errorf("worker %d of the second engine has a channel the first did not give back", i)
		}
	}
}

// TestAllocsResumeHandBackAllocFree: a process that ends inside a measured
// window gives its channel back without allocating, however many come back
// into an empty list: the list is an array, never grown.
func TestAllocsResumeHandBackAllocFree(t *testing.T) {
	win := allocwin.New(t)
	resumeChans.Lock()
	clear(resumeChans.free[:])
	resumeChans.n = 0
	resumeChans.Unlock()

	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Go("worker", func(p *Proc) { p.Sleep(2 * time.Microsecond) })
	}
	e.At(time.Microsecond, win.Open)
	e.At(3*time.Microsecond, win.Close)
	e.Run()
	t.Logf("64 hand-backs into an empty list: %d objects", win.Objects())
	if n := len(idleResume()); n != 64 {
		t.Errorf("the list holds %d channels after 64 processes ended, want 64", n)
	}
	if win.Objects() != 0 && !allocwin.RaceEnabled {
		t.Errorf("64 processes ending allocated %d objects, want none", win.Objects())
	}
}
