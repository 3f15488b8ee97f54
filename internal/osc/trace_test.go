package osc

import (
	"fmt"
	"testing"

	"scimpich/internal/allocwin"
	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
)

// TestGuardedTraceSites is the one-sided half of mpi.TestGuardedTraceSites:
// every SetDetail with arguments is guarded at its call site by the span it
// holds, and with a tracer attached each must record exactly the Detail the
// unguarded call produced — the epoch, and a put, get and accumulate on the
// direct and on the emulated path. The puts' events are the flight ring's.
// Both windows belong to one engine, so they are windows 0 and 1.
func TestGuardedTraceSites(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	tr := obs.NewTrace(0)
	rec := flight.New(0)
	cfg.Tracer, cfg.Flight = tr, rec
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		shared := s.CreateShared(c.AllocShared(64<<10), DefaultConfig())
		private := s.CreatePrivate(make([]byte, 64<<10), DefaultConfig())
		small, large := fill(64), fill(16<<10)
		for _, w := range []*Win{shared, private} {
			must(w.Fence())
			if c.Rank() == 0 {
				must(w.Put(small, len(small), datatype.Byte, 1, 0))
				must(w.Get(small, len(small), datatype.Byte, 1, 0))
				must(w.Get(large, len(large), datatype.Byte, 1, 0))
				must(w.Accumulate(small, len(small)/8, datatype.Int64, mpi.OpSum, 1, 0))
				must(w.Accumulate(large, len(large)/8, datatype.Int64, mpi.OpSum, 1, 0))
			}
			must(w.Fence())
		}
	})
	got := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Category == "osc" && s.Detail != "" {
			got[s.Actor+" "+s.Name+": "+s.Detail]++
		}
	}
	for _, e := range rec.Snapshot("").Actor("rank0").Events {
		got["flight "+flight.FormatEvent(e)]++
	}
	for _, want := range []struct {
		line string
		n    int
	}{
		{"rank0 epoch: win 0 fence", 1},
		{"rank1 epoch: win 0 fence", 1},
		{"rank0 epoch: win 1 fence", 1},
		{"rank1 epoch: win 1 fence", 1},
		{"rank0 put: direct -> 1", 1},
		{"rank0 put: emulated -> 1", 1},
		{"rank0 get: direct <- 1", 1},
		{"rank0 get: remote-put <- 1", 3},
		{"rank0 acc: inline -> 1", 2},
		{"rank0 acc: staged -> 1", 2},
		{"flight put -> rank1 64B on window 0 (direct)", 1},
		{"flight put -> rank1 64B on window 1 (emulated)", 1},
	} {
		if got[want.line] != want.n {
			t.Errorf("recorded %d x %q, want %d", got[want.line], want.line, want.n)
		}
	}
	if t.Failed() {
		for line, n := range got {
			t.Logf("%d x %s", n, line)
		}
	}
}

// TestWindowTraceActorIsRankName: a window takes its trace actor from the
// rank's cached name, which reads exactly "rank<i>" on every rank of a 3x2
// world (the rest of the world's names are mpi.TestNamesUnchanged's).
func TestWindowTraceActorIsRankName(t *testing.T) {
	cfg := mpi.DefaultConfig(3, 2)
	tr := obs.NewTrace(0)
	cfg.Tracer = tr
	mpi.Run(cfg, func(c *mpi.Comm) {
		w := mkWin(c, 4096, false)
		must(w.Fence())
		must(w.Fence()) // ends the epoch the first one opened
	})
	epochs := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Category == "osc" && s.Name == "epoch" {
			epochs[s.Actor]++
		}
	}
	for r := 0; r < 6; r++ {
		if actor := fmt.Sprintf("rank%d", r); epochs[actor] != 1 {
			t.Errorf("%d epoch spans on actor %q, want 1 (spans by actor: %v)", epochs[actor], actor, epochs)
		}
	}
}

// TestAllocsPutFenceBudget pins a put + fence epoch on a shared window, with
// tracing off, at no object on either rank. It is the one-sided half of
// mpi.TestTracingOffBoxesNothing: the epoch span takes a string, so every
// trace call site that boxed its arguments with the tracer off showed here
// (15 objects per epoch before the sites were guarded, 2 while every fence
// barrier copied the communicator). The window opens after 300 fences, so
// the round numbers the fence's arrival notifications carry are past 255,
// where an int boxed into an interface allocates.
func TestAllocsPutFenceBudget(t *testing.T) {
	const warm, n = 300, 200
	src := fill(4096)
	win := allocwin.New(t)
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, 8192, true)
		must(w.Fence())
		for i := 0; i < warm+n; i++ {
			if i == warm && c.Rank() == 0 {
				win.Open()
			}
			if c.Rank() == 0 {
				must(w.Put(src, len(src), datatype.Byte, 1, 100))
			}
			must(w.Fence())
		}
		if c.Rank() == 0 {
			win.Close()
		}
	})
	objs := float64(win.Objects()) / n
	t.Logf("put + fence epoch: %.2f objects, %.1f B", objs, float64(win.Bytes())/n)
	if objs >= 0.5 && !allocwin.RaceEnabled {
		t.Errorf("%.2f objects per put + fence epoch, want none (2 until PR 23, 15 before PR 21)", objs)
	}
}
