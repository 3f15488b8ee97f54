package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"scimpich/internal/allocwin"
)

// A process's first dispatch takes a coroutine from the program-wide pool;
// its engine gives the coroutine back once the body has returned. These tests
// pin what that saves, what a coroutine the pool cannot supply costs, and
// where the pool must not cost.

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

// idleCoroutines returns the coroutines the pool holds.
func idleCoroutines() map[*coroutine]bool {
	l := &coroutines
	l.Lock()
	defer l.Unlock()
	idle := make(map[*coroutine]bool, l.n)
	for _, co := range l.idle[:l.n] {
		idle[co] = true
	}
	return idle
}

// emptyPool stops every pooled coroutine, which ends its goroutine, so the
// next processes of the program find none.
func emptyPool() {
	l := &coroutines
	l.Lock()
	idle, n := l.idle, l.n
	l.idle, l.n = [maxIdleCoroutines]*coroutine{}, 0
	l.Unlock()
	for _, co := range idle[:n] {
		co.stop()
	}
}

// spawnWorkersAndDaemons spawns 64 workers running body and 8 daemons that
// are woken once the workers have finished, so at most 64 processes are alive
// at once (sleepOnce), or 8 (a body that returns without blocking).
func spawnWorkersAndDaemons(e *Engine, body func(p *Proc)) {
	for i := 0; i < 64; i++ {
		e.Go("worker", body)
	}
	daemons := make([]*Proc, 8)
	for i := range daemons {
		daemons[i] = e.GoDaemon("daemon", parkForever)
	}
	e.AfterCall(2*time.Microsecond, wakeAll, daemons)
}

// TestAllocsProcStartWarm: once the program has run processes, a run that
// starts 64 processes which finish and 8 daemons which Run ends allocates
// nothing — no coroutine and no closure. The spawns come before the window,
// so it holds what starting and ending them costs.
func TestAllocsProcStartWarm(t *testing.T) {
	win := allocwin.New(t)
	warm := NewEngine()
	spawnWorkersAndDaemons(warm, sleepOnce)
	warm.Run()

	e := NewEngine()
	spawnWorkersAndDaemons(e, sleepOnce)
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

// A process's first dispatch, when the pool has no coroutine for it, makes
// one: iter.Pull's closures, the variables they share and the runtime's
// coroutine, the yield closure of the coroutine's first run, and the
// coroutine record and its body's method value. That costs
// coldCoroutineObjects objects and coldCoroutineBytes bytes where the runtime
// still has the record of an ended goroutine to reuse, and a goroutine record
// (one object, 480 B) more where it has none. A pooled coroutine costs nothing
// to start (TestAllocsProcStartWarm).
const (
	coldCoroutineObjects = 13
	coldCoroutineBytes   = 384
)

// TestAllocsColdCoroutine pins the cost of a coroutine the program makes: 64
// processes alive at once on an empty pool make 64, and their spawns are paid
// before the window opens. The 64 coroutines made and stopped first leave the
// runtime 64 goroutine records to reuse, so the reading does not depend on
// what ran before. The engine's later hand-backs fill the pool again.
func TestAllocsColdCoroutine(t *testing.T) {
	win := allocwin.New(t)
	warm := NewEngine()
	for i := 0; i < 64; i++ {
		warm.Go("worker", sleepOnce)
	}
	warm.Run()
	emptyPool()

	e := NewEngine()
	e.At(0, win.Open) // the first event: the workers' dispatches come after it
	for i := 0; i < 64; i++ {
		e.Go("worker", sleepOnce)
	}
	e.At(time.Microsecond/2, win.Close)
	e.Run()
	t.Logf("64 cold coroutines: %d objects, %d bytes", win.Objects(), win.Bytes())
	if got := len(idleCoroutines()); got != 64 {
		t.Errorf("the pool holds %d coroutines after 64 processes ended, want 64", got)
	}
	// The bytes are rounded down: some of a coroutine's variables are tiny
	// objects, which share 16 B blocks.
	objs, bytes := win.Objects(), win.Bytes()/64
	if (objs != 64*coldCoroutineObjects || bytes != coldCoroutineBytes) && !allocwin.RaceEnabled {
		t.Errorf("a cold coroutine costs %.2f objects and %d bytes, want %d and %d",
			float64(objs)/64, bytes, coldCoroutineObjects, coldCoroutineBytes)
	}
}

// TestAllocsProcEndsAtOnce: a process whose body returns without blocking
// gives its coroutine back before its engine goes on, so the next start takes
// it again: 64 of them in a row leave no goroutine behind, except at most the
// one coroutine the pool grew by, even on one P with nothing else to run.
func TestAllocsProcEndsAtOnce(t *testing.T) {
	allocwin.New(t)
	before, idle := runtime.NumGoroutine(), IdleCoroutines()
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Go("returns", func(*Proc) {})
	}
	e.Run()
	grew := IdleCoroutines() - idle
	if n := runtime.NumGoroutine() - before - grew; n != 0 || grew > 1 {
		t.Errorf("%d goroutines of finished processes still there when Run returned, the pool grew by %d", n, grew)
	}
}

// TestAllocsCoroutineReusedAcrossGoroutines: the coroutines the processes of
// one engine gave back are the ones engines on other goroutines take, running
// side by side: every switch into them comes from a goroutine, and maybe a
// thread, other than the one they first ran for.
func TestAllocsCoroutineReusedAcrossGoroutines(t *testing.T) {
	run := func(n int) []*coroutine {
		e := NewEngine()
		got := make([]*coroutine, n)
		for i := range got {
			e.Go("worker", func(p *Proc) {
				got[i] = p.co
				p.Sleep(time.Microsecond)
			})
		}
		e.Run()
		return got
	}
	first := run(16)
	idle := idleCoroutines()
	gave := make(map[*coroutine]bool, len(first))
	for i, co := range first {
		if !idle[co] {
			t.Fatalf("worker %d of the first engine did not give its coroutine back", i)
		}
		gave[co] = true
	}
	// The 16 given back are the top of the pool; two engines of 8 processes,
	// each alive at once, take no more than them, whatever the interleaving.
	var wg sync.WaitGroup
	later := make([][]*coroutine, 2)
	for i := range later {
		wg.Add(1)
		go func() {
			defer wg.Done()
			later[i] = run(8)
		}()
	}
	wg.Wait()
	for i, got := range later {
		for j, co := range got {
			if !gave[co] {
				t.Errorf("worker %d of engine %d has a coroutine the first engine did not give back", j, i)
			}
		}
	}
}

// TestAllocsCoroutineHandBackAllocFree: a process that ends inside a measured
// window gives its coroutine back without allocating, however many come back
// into an empty pool: the pool is an array, never grown.
func TestAllocsCoroutineHandBackAllocFree(t *testing.T) {
	win := allocwin.New(t)
	emptyPool()

	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Go("worker", func(p *Proc) { p.Sleep(2 * time.Microsecond) })
	}
	e.At(time.Microsecond, win.Open)
	e.At(3*time.Microsecond, win.Close)
	e.Run()
	t.Logf("64 hand-backs into an empty pool: %d objects", win.Objects())
	if n := len(idleCoroutines()); n != 64 {
		t.Errorf("the pool holds %d coroutines after 64 processes ended, want 64", n)
	}
	if win.Objects() != 0 && !allocwin.RaceEnabled {
		t.Errorf("64 processes ending allocated %d objects, want none", win.Objects())
	}
}
