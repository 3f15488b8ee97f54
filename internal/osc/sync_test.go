package osc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
)

// The watchdog is each rank's own setting (Config.SyncTimeout), so ranks
// with and without one synchronize on the same window, and a rank holds
// one engine whose handler serves every window it created.

// TestFenceMixesWithFenceChecked: rank 0 closes an epoch with an unbounded
// Fence while rank 1 closes the same one under a watchdog; both return and
// the put lands.
func TestFenceMixesWithFenceChecked(t *testing.T) {
	src := fill(1024)
	runCluster(2, 1, func(c *mpi.Comm) {
		oscCfg := DefaultConfig()
		if c.Rank() == 1 {
			oscCfg.SyncTimeout = time.Millisecond
		}
		w := NewSystem(c).CreateShared(c.AllocShared(4096), oscCfg)
		fence := func() {
			if err := w.Fence(); err != nil {
				t.Errorf("rank %d: fence: %v", c.Rank(), err)
			}
		}
		fence()
		if c.Rank() == 0 {
			must(w.Put(src, len(src), datatype.Byte, 1, 0))
		}
		fence()
		if c.Rank() == 1 && !bytes.Equal(w.LocalBytes()[:len(src)], src) {
			t.Error("put not visible after the mixed fence")
		}
	})
}

// TestLockExclusiveUnderContention: four ranks on four nodes each do 25
// read-modify-write increments of rank 0's counter, the even ranks without
// a watchdog and the odd ones under the automatic one; no update is lost on
// a shared or on a private window.
func TestLockExclusiveUnderContention(t *testing.T) {
	const procs, rounds = 4, 25
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			runCluster(procs, 1, func(c *mpi.Comm) {
				oscCfg := DefaultConfig()
				if c.Rank()%2 == 1 {
					oscCfg.SyncTimeout = mpi.AutoTimeout
				}
				s := NewSystem(c)
				var w *Win
				if shared {
					w = s.CreateShared(c.AllocShared(8), oscCfg)
				} else {
					w = s.CreatePrivate(make([]byte, 8), oscCfg)
				}
				buf := make([]byte, 8)
				for i := 0; i < rounds; i++ {
					if err := w.Lock(0); err != nil {
						t.Errorf("rank%d: Lock: %v", c.Rank(), err)
						return
					}
					must(w.Get(buf, 8, datatype.Byte, 0, 0))
					v := mpi.BytesFloat64(buf)[0]
					must(w.Put(mpi.Float64Bytes([]float64{v + 1}), 8, datatype.Byte, 0, 0))
					w.Unlock(0)
				}
				must(c.Barrier())
				if got := mpi.BytesFloat64(w.LocalBytes())[0]; c.Rank() == 0 && got != procs*rounds {
					t.Errorf("counter = %g, want %d", got, procs*rounds)
				}
			})
		})
	}
}

// TestLockOnCrashedNodeFailsTyped: node 1 crashes before rank 0 locks its
// window. Without a watchdog, Lock returns sci.ErrConnectionLost (as Put
// does), on a shared and on a private window, instead of granting a dead
// node's lock or waiting forever; checked=true runs the same lock under
// the automatic watchdog, which ends it with a typed error too.
func TestLockOnCrashedNodeFailsTyped(t *testing.T) {
	for _, tc := range []struct {
		shared, checked bool
	}{{true, false}, {true, true}, {false, false}, {false, true}} {
		t.Run(fmt.Sprintf("shared=%v/checked=%v", tc.shared, tc.checked), func(t *testing.T) {
			cfg := mpi.DefaultConfig(2, 1)
			cfg.SCI.Fault = fault.New(5).CrashNode(1, time.Millisecond)
			oscCfg := DefaultConfig()
			if tc.checked {
				oscCfg.SyncTimeout = mpi.AutoTimeout
			}
			mpi.Run(cfg, func(c *mpi.Comm) {
				s := NewSystem(c)
				var w *Win
				if tc.shared {
					w = s.CreateShared(c.AllocShared(4096), oscCfg)
				} else {
					w = s.CreatePrivate(make([]byte, 4096), oscCfg)
				}
				c.Proc().Sleep(2 * time.Millisecond) // node 1 is down now
				if c.Rank() != 0 {
					return
				}
				err := w.Lock(1)
				var lost sci.ErrConnectionLost
				var st ErrSyncTimeout
				if !errors.As(err, &lost) && !(tc.checked && errors.As(err, &st)) {
					t.Errorf("lock toward a crashed node: err = %v, want a typed fault", err)
				}
				if w.ep != epochNone {
					t.Error("a failed lock opened an epoch")
				}
			})
		})
	}
}

// TestPlainFenceRecordsFlightEvents: a program that only calls Fence
// records one KFenceEnter and one KFenceExit per rank per fence, so the
// post-mortem analysis links its puts to their delivery.
func TestPlainFenceRecordsFlightEvents(t *testing.T) {
	const ranks, fences = 3, 4
	cfg := mpi.DefaultConfig(ranks, 1)
	rec := flight.New(0)
	cfg.Flight = rec
	src := fill(256)
	mpi.Run(cfg, func(c *mpi.Comm) {
		w := mkWin(c, 4096, true)
		must(w.Fence())
		for i := 1; i < fences; i++ {
			if c.Rank() == 0 {
				must(w.Put(src, len(src), datatype.Byte, 1, 0))
			}
			must(w.Fence())
		}
	})
	d := rec.Snapshot("")
	for r := 0; r < ranks; r++ {
		kinds := map[flight.Kind]int{}
		for _, e := range d.Actor(fmt.Sprintf("rank%d", r)).Events {
			kinds[e.KindOf()]++
		}
		if kinds[flight.KFenceEnter] != fences || kinds[flight.KFenceExit] != fences {
			t.Errorf("rank%d: %d fence enters and %d exits, want %d each",
				r, kinds[flight.KFenceEnter], kinds[flight.KFenceExit], fences)
		}
	}
}

// TestOneEnginePerRank: a second engine on a rank panics with the named
// rule instead of taking over the first engine's handler traffic, so a
// 16 KiB get through the first engine's shared window (served by the
// target's handler on the remote-put path) returns the target's bytes.
func TestOneEnginePerRank(t *testing.T) {
	const size = 16 << 10
	want := fill(size)
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(size), DefaultConfig())
		if c.Rank() == 1 {
			copy(w.LocalBytes(), want)
		}
		s.Rebind(c) // the same engine may register again
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			NewSystem(c).CreatePrivate(make([]byte, size), DefaultConfig())
			return nil
		}()
		if text, _ := msg.(string); !strings.Contains(text, "one engine per rank") {
			t.Errorf("rank%d: second engine: recovered %v, want the one-engine panic", c.Rank(), msg)
		}
		must(w.Fence())
		if c.Rank() == 0 {
			got := make([]byte, size)
			must(w.Get(got, size, datatype.Byte, 1, 0))
			if w.Snapshot().RemotePuts != 1 {
				t.Errorf("get took %d remote-put paths, want 1", w.Snapshot().RemotePuts)
			}
			if bad := countDiff(got, want); bad != 0 {
				t.Errorf("get returned %d wrong bytes of %d", bad, size)
			}
		}
		must(w.Fence())
	})
}

func countDiff(a, b []byte) (n int) {
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
