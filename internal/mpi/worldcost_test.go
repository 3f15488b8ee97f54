package mpi_test

// A finished run leaves no goroutine behind. (What a world costs to build is
// pinned in budget_test.go.)

import (
	"runtime"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/rmem"
)

// waitGoroutines waits for the goroutine count to come back down to the
// count taken before the run: an ended goroutine has handed control back
// before Run returns, but may not have left the scheduler yet.
func waitGoroutines(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left, %d before the run", what, runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: the device and DMA daemons of a world are
// parked forever once its run has drained; Run ends them.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	mpi.Run(mpi.DefaultConfig(8, 2), func(c *mpi.Comm) {
		// One message per protocol: short, eager, rendezvous.
		for _, n := range []int{64, 4 << 10, 256 << 10} {
			out, in := make([]byte, n), make([]byte, n)
			c.Sendrecv(out, n, datatype.Byte, c.Rank()^1, 1, in, n, datatype.Byte, c.Rank()^1, 1)
		}
		c.Barrier()
	})
	waitGoroutines(t, "8x2 world", before)

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
