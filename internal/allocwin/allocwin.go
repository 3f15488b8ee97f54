// Package allocwin is test support: it measures what a stretch of a test
// allocates, read from the process-wide runtime.MemStats, so that nothing
// else in the test binary can disturb the count. Every allocation budget
// that cannot use testing.AllocsPerRun — because its window opens and closes
// inside simulated processes, or spans a whole world — measures through it.
package allocwin

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Window is one measured stretch: Open, the code under test, Close.
type Window struct {
	m0, m1 runtime.MemStats
}

// New prepares the calling test for a measurement and returns its window.
// Like testing.AllocsPerRun it confines the process to one P until the test
// ends: on several Ps, goroutines that block and wake — the test's own, or an
// earlier test's still winding down on another P — move the runtime's wait
// records between per-P caches, which now and then allocates one inside the
// window. And
// it settles first: one collection now and none until the test ends, so that
// no cycle empties a sync.Pool inside the window, then the goroutines that
// are runnable get to run until no more of them end.
func New(t testing.TB) *Window {
	procs := runtime.GOMAXPROCS(1)
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	for n := runtime.NumGoroutine() + 1; runtime.NumGoroutine() < n; {
		n = runtime.NumGoroutine()
		runtime.Gosched()
	}
	return new(Window)
}

// Open starts the window.
func (w *Window) Open() { runtime.ReadMemStats(&w.m0) }

// Close ends the window.
func (w *Window) Close() { runtime.ReadMemStats(&w.m1) }

// Objects returns the heap objects allocated between Open and Close.
func (w *Window) Objects() uint64 { return w.m1.Mallocs - w.m0.Mallocs }

// Bytes returns the heap bytes allocated between Open and Close.
func (w *Window) Bytes() uint64 { return w.m1.TotalAlloc - w.m0.TotalAlloc }
