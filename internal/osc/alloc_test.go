package osc

import (
	"testing"

	"scimpich/internal/allocwin"
	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

// TestAllocsRPCBudget pins the emulated one-sided round trip at no object
// once warm: an inline emulated put, a remote-put get and an inline
// accumulate on a private window under the automatic watchdog's bound. The call
// takes its request record and its reply channel from free lists, the
// watchdog is armed without a closure, the handler answers with a shared
// reply, and the payloads pack into pooled buffers.
func TestAllocsRPCBudget(t *testing.T) {
	const warm, n = 20, 200
	val := fill(64)
	got := make([]byte, 64)
	win := allocwin.New(t)
	runCluster(2, 1, func(c *mpi.Comm) {
		w := NewSystem(c).CreatePrivate(make([]byte, 4096), DefaultConfig())
		w.timeout = c.World().ScaledSyncTimeout()
		must(w.Fence())
		if c.Rank() == 0 {
			for i := 0; i < warm+n; i++ {
				if i == warm {
					win.Open()
				}
				must(w.Put(val, len(val), datatype.Byte, 1, 0))
				must(w.Get(got, len(got), datatype.Byte, 1, 512))
				must(w.Accumulate(val, len(val)/8, datatype.Int64, mpi.OpSum, 1, 1024))
			}
			win.Close()
		}
		// Fence waits for a peer only as long as the watchdog allows; the
		// unbounded barrier holds rank 1 while rank 0 makes its 660 calls.
		must(c.Barrier())
		must(w.Fence())
	})
	objs := float64(win.Objects()) / (3 * n)
	t.Logf("emulated call: %.3f objects, %.1f B", objs, float64(win.Bytes())/(3*n))
	if objs >= 0.5 && !allocwin.RaceEnabled {
		t.Errorf("%.3f objects per emulated call, want none", objs)
	}
}
