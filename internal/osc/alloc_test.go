package osc

import (
	"testing"

	"scimpich/internal/allocwin"
	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

// TestAllocsRPCBudget pins the emulated one-sided round trip at no object
// once warm: emulated puts and accumulates, inline (64 B) and staged
// (256 B), and remote-put gets on a private window under the automatic
// watchdog's bound. The call takes its request record and its reply channel
// from free lists, the watchdog is armed without a closure, the handler
// answers with a shared reply, the retries run closures on the stack, and
// the payloads pack into pooled buffers. The reply is not asserted to an
// interface type: such an assertion now and then grows its call site's
// cache, one object at a random call, so the window spans thousands of
// calls and wants no object at all.
func TestAllocsRPCBudget(t *testing.T) {
	const warm, n = 20, 1000
	val := fill(256)
	got := make([]byte, 256)
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
				for _, size := range []int{64, 256} {
					must(w.Put(val, size, datatype.Byte, 1, 0))
					must(w.Get(got, size, datatype.Byte, 1, 512))
					must(w.Accumulate(val, size/8, datatype.Int64, mpi.OpSum, 1, 1024))
				}
			}
			win.Close()
		}
		// Fence waits for a peer only as long as the watchdog allows; the
		// unbounded barrier holds rank 1 while rank 0 makes its 6120 calls.
		must(c.Barrier())
		must(w.Fence())
	})
	t.Logf("%d emulated calls: %d objects, %d B", 6*n, win.Objects(), win.Bytes())
	if win.Objects() != 0 && !allocwin.RaceEnabled {
		t.Errorf("%d emulated calls allocated %d objects, want none", 6*n, win.Objects())
	}
}
