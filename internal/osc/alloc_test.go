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

// TestAllocsWindowBudget pins the host cost of creating a window on a warm
// 4x1 world: one CreateShared and one CreatePrivate, each measured from rank
// 0 over the creation on all four ranks (their memory allocated before, and
// the System's window table past its last growth). Each rank allocates one
// object per kind: its Win (which holds its shared window's lock and the
// communicator it was created on), its wake channel, its member table (a
// row per rank: size, flags, view, lock pointer, arrival record and the
// storage of the view's remote mapping) and its group-rank slice; it reads
// each member's window from the member's engine, which allocates nothing.
// That is 16 objects and 3 584 B measured for either kind, each held to its
// measurement plus 15 %: 18 objects and 4 122 B.
func TestAllocsWindowBudget(t *testing.T) {
	const warm = 3                // window pairs: the System's table holds 8 before it grows
	var shared, private [2]uint64 // objects, bytes
	win := allocwin.New(t)
	measure := func(c *mpi.Comm, into *[2]uint64, create func() *Win) {
		must(c.Barrier()) // every rank has allocated its memory
		if c.Rank() == 0 {
			win.Open()
		}
		must(c.Barrier()) // no rank starts creating before the window opens
		create()
		must(c.Barrier())
		if c.Rank() == 0 {
			win.Close()
			*into = [2]uint64{win.Objects(), win.Bytes()}
		}
	}
	runCluster(4, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		for range warm {
			s.CreateShared(c.AllocShared(4096), DefaultConfig())
			s.CreatePrivate(make([]byte, 4096), DefaultConfig())
		}
		seg, buf := c.AllocShared(4096), make([]byte, 4096)
		measure(c, &shared, func() *Win { return s.CreateShared(seg, DefaultConfig()) })
		measure(c, &private, func() *Win { return s.CreatePrivate(buf, DefaultConfig()) })
	})
	t.Logf("CreateShared on 4x1: %d objects, %d B; CreatePrivate: %d objects, %d B",
		shared[0], shared[1], private[0], private[1])
	if allocwin.RaceEnabled {
		return // the detector allocates on its own
	}
	for _, m := range []struct {
		kind string
		cost [2]uint64
	}{{"CreateShared", shared}, {"CreatePrivate", private}} {
		if m.cost[0] > 18 || m.cost[1] > 4122 {
			t.Errorf("%s on 4x1 allocated %d objects and %d B, budget is 18 and 4 122", m.kind, m.cost[0], m.cost[1])
		}
	}
}
