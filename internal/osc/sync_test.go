package osc

import (
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

// TestLockExclusiveUnderContention: four ranks on four nodes each do 25
// read-modify-write increments of rank 0's counter, once in a world without
// a watchdog and once under the automatic one; no update is lost on a
// shared or on a private window.
func TestLockExclusiveUnderContention(t *testing.T) {
	const procs, rounds = 4, 25
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			for _, timeout := range []time.Duration{0, mpi.AutoTimeout} {
				cfg := mpi.DefaultConfig(procs, 1)
				cfg.Protocol.CollTimeout = timeout
				mpi.Run(cfg, func(c *mpi.Comm) {
					s := NewSystem(c)
					var w *Win
					if shared {
						w = s.CreateShared(c.AllocShared(8), DefaultConfig())
					} else {
						w = s.CreatePrivate(make([]byte, 8), DefaultConfig())
					}
					buf := make([]byte, 8)
					for i := 0; i < rounds; i++ {
						if err := w.Lock(0); err != nil {
							t.Errorf("CollTimeout %v: rank%d: Lock: %v", timeout, c.Rank(), err)
							return
						}
						must(w.Get(buf, 8, datatype.Byte, 0, 0))
						v := mpi.BytesFloat64(buf)[0]
						must(w.Put(mpi.Float64Bytes([]float64{v + 1}), 8, datatype.Byte, 0, 0))
						must(w.Unlock(0))
					}
					must(c.Barrier())
					if got := mpi.BytesFloat64(w.LocalBytes())[0]; c.Rank() == 0 && got != procs*rounds {
						t.Errorf("CollTimeout %v: counter = %g, want %d", timeout, got, procs*rounds)
					}
				})
			}
		})
	}
}

// TestLockOnCrashedNodeFailsTyped: node 1 crashes before rank 0 locks its
// window. Lock returns sci.ErrConnectionLost (as Put does), on a shared
// and on a private window, instead of granting a dead node's lock or
// waiting: in a world without a watchdog and, checked=true, under the
// automatic one, whose bound the lock does not wait out.
func TestLockOnCrashedNodeFailsTyped(t *testing.T) {
	for _, tc := range []struct {
		shared, checked bool
	}{{true, false}, {true, true}, {false, false}, {false, true}} {
		t.Run(fmt.Sprintf("shared=%v/checked=%v", tc.shared, tc.checked), func(t *testing.T) {
			cfg := mpi.DefaultConfig(2, 1)
			cfg.SCI.Fault = fault.New(5).CrashNode(1, time.Millisecond)
			if tc.checked {
				cfg.Protocol.CollTimeout = mpi.AutoTimeout
			}
			mpi.Run(cfg, func(c *mpi.Comm) {
				s := NewSystem(c)
				var w *Win
				if tc.shared {
					w = s.CreateShared(c.AllocShared(4096), DefaultConfig())
				} else {
					w = s.CreatePrivate(make([]byte, 4096), DefaultConfig())
				}
				c.Proc().Sleep(2 * time.Millisecond) // node 1 is down now
				if c.Rank() != 0 {
					return
				}
				before := c.Proc().Now()
				err := w.Lock(1)
				var lost sci.ErrConnectionLost
				if !errors.As(err, &lost) || lost.To != 1 {
					t.Errorf("lock toward a crashed node: err = %v, want sci.ErrConnectionLost to node 1", err)
				}
				if took := c.Proc().Now() - before; took > 10*time.Microsecond {
					t.Errorf("the lock failed after %v, want within a few µs", took)
				}
				if w.ep != epochNone {
					t.Error("a failed lock opened an epoch")
				}
			})
		})
	}
}

// TestFenceFailsFastOnLostPeer holds Fence's fast fail on a peer the
// liveness view already shows lost, one case per rule, on three nodes
// with node 1 crashing at 1 ms under the automatic watchdog: a survivor
// entering a round after the crash fails within a few µs with
// sci.ErrConnectionLost, counting no timeout; once a shrink agreement
// revoked rank 1, with *mpi.RevokedRankError naming it; rank 1 itself, on
// its dead node, with *mpi.RevokedRankError naming itself. A peer that
// announced the round before its node crashed fails nothing: the
// survivors complete that round, which a check on the arrival count
// alone would fail, and its own fence, still waiting, ends at its
// watchdog with the *mpi.RevokedRankError naming itself.
func TestFenceFailsFastOnLostPeer(t *testing.T) {
	const crashAt = time.Millisecond
	for _, tc := range []string{"dead-node", "revoked", "own-node", "announced-then-crashed"} {
		t.Run(tc, func(t *testing.T) {
			cfg := mpi.DefaultConfig(3, 1)
			cfg.SCI.Fault = fault.New(5).CrashNode(1, crashAt)
			cfg.Protocol.CollTimeout = mpi.AutoTimeout
			checked := 0
			mpi.Run(cfg, func(c *mpi.Comm) {
				s := NewSystem(c)
				w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
				must(w.Fence()) // round 1, everyone alive
				p := c.Proc()
				me := c.Rank()
				if tc == "announced-then-crashed" {
					if me == 1 {
						// Announce round 2 just before the crash, then wait
						// in it until the watchdog ends the wait: its own
						// node died meanwhile, so it fails as a fence
						// entered after the crash does.
						p.Sleep(crashAt - 100*time.Microsecond - p.Now())
						var rev *mpi.RevokedRankError
						if err := w.Fence(); !errors.As(err, &rev) || rev.Rank != 1 {
							t.Errorf("rank 1: fence waiting at its crash: err = %v, want *mpi.RevokedRankError for rank 1", err)
						}
						return
					}
					p.Sleep(2*crashAt - p.Now())
					if err := w.Fence(); err != nil {
						t.Errorf("rank %d: round rank 1 announced before its crash failed: %v", me, err)
					}
					checked++
					return
				}
				p.Sleep(2*crashAt - p.Now()) // node 1 is down now
				switch {
				case tc == "own-node" && me == 1:
					var rev *mpi.RevokedRankError
					if err := w.Fence(); !errors.As(err, &rev) || rev.Rank != 1 {
						t.Errorf("fence on a dead node: err = %v, want *mpi.RevokedRankError for rank 1", err)
					}
					checked++
				case me == 1:
				case tc == "revoked":
					if _, err := c.Shrink(); err != nil {
						t.Fatalf("rank %d: shrink: %v", me, err)
					}
					var rev *mpi.RevokedRankError
					if err := w.Fence(); !errors.As(err, &rev) || rev.Rank != 1 {
						t.Errorf("rank %d: fence toward a revoked rank: err = %v, want *mpi.RevokedRankError for rank 1", me, err)
					}
					checked++
				case tc == "dead-node":
					entered := p.Now()
					err := w.Fence()
					var lost sci.ErrConnectionLost
					if !errors.As(err, &lost) || lost.To != 1 {
						t.Errorf("rank %d: fence toward a dead node: err = %v, want sci.ErrConnectionLost to node 1", me, err)
					}
					if took := p.Now() - entered; took > 10*time.Microsecond {
						t.Errorf("rank %d: the fence failed after %v, want within a few µs", me, took)
					}
					if n := expiries(c); n != 0 {
						t.Errorf("rank %d: %d expired waits, want 0", me, n)
					}
					checked++
				}
			})
			want := 2
			if tc == "own-node" {
				want = 1
			}
			if checked != want {
				t.Errorf("%d ranks reached the check, want %d", checked, want)
			}
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
