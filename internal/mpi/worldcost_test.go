package mpi_test

// A finished run leaves no goroutine behind. (What a world costs to build is
// pinned in budget_test.go.)

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/rmem"
	"scimpich/internal/sim"
)

// liveGoroutines counts the goroutines outside the program's coroutine pool:
// an idle pooled coroutine is a parked goroutine that pins nothing of the
// run that last used it.
func liveGoroutines() int { return runtime.NumGoroutine() - sim.IdleCoroutines() }

// waitGoroutines waits for the goroutines outside the pool to come back down
// to their count taken before the run (liveGoroutines): a goroutine that
// ended has handed control back before Run returns, but may not have left
// the scheduler yet.
func waitGoroutines(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for liveGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outside the coroutine pool left, %d before the run", what, liveGoroutines(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: the device and DMA daemons of a world are
// parked forever once its run has drained; Run ends them, their coroutines
// go back to the pool, and nothing is left that pins the world's engine.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := liveGoroutines()
	e := sim.NewEngine()
	mpi.RunOn(sim.NewSeqFabric(e, 1, 0), mpi.DefaultConfig(8, 2), func(c *mpi.Comm) {
		// One message per protocol: short, eager, rendezvous.
		for _, n := range []int{64, 4 << 10, 256 << 10} {
			out, in := make([]byte, n), make([]byte, n)
			must1(c.Sendrecv(out, n, datatype.Byte, c.Rank()^1, 1, in, n, datatype.Byte, c.Rank()^1, 1))
		}
		must(c.Barrier())
	})
	waitGoroutines(t, "8x2 world", before)
	engine := weak.Make(e)
	e = nil
	runtime.GC()
	runtime.GC()
	if engine.Value() != nil {
		t.Error("the engine of a finished 8x2 world is still reachable after two collections")
	}

	// A node crashes mid-run: its rank stops early, the survivors shrink
	// and fail over, and the dead node's daemons stay parked to the end.
	rcfg := mpi.DefaultConfig(4, 1)
	rcfg.SCI.Fault = fault.New(42).CrashNode(1, 5200*time.Microsecond)
	rcfg.Protocol.CollTimeout = mpi.AutoTimeout
	rcfg.Protocol.RendezvousTimeout = mpi.AutoTimeout
	reports, _ := rmem.RunWorkload(rcfg, rmem.DefaultConfig(), rmem.DefaultWorkload())
	if !reports[1].Died {
		t.Errorf("the crash was not exercised: %+v", reports[1])
	}
	waitGoroutines(t, "rmem crash run", before)
}

// must fails the calling rank on a fault the test does not expect.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// must1 is must for a call that also returns a value.
func must1[T any](v T, err error) T {
	must(err)
	return v
}
