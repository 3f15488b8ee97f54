package osc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/pack"
	"scimpich/internal/sci"
)

// Fault-injection tests for the one-sided layer: a direct window view that
// dies mid-epoch must degrade to the emulation path transparently, and the
// checked synchronization calls must time out instead of deadlocking when a
// peer crashes.

// TestSharedWindowDegradesMidEpoch: the target's window segment is revoked
// between two puts of the same run. The first put goes direct; the second
// hits the dead mapping, degrades the view, is transparently replayed over
// the emulation path, and the epoch still completes with correct contents.
func TestSharedWindowDegradesMidEpoch(t *testing.T) {
	srcA, srcB := fill(2048), fill(2048)
	for i := range srcB {
		srcB[i] ^= 0xFF
	}
	run := func() (time.Duration, Stats) {
		cfg := mpi.DefaultConfig(2, 1)
		// Segment 0 of each node is the MPI port; the window allocation is
		// segment 1. Revoke rank 1's window backing mid-run.
		cfg.SCI.Fault = fault.New(21).RevokeSegment(1, 1, 2*time.Millisecond)
		var got Stats
		d := mpi.Run(cfg, func(c *mpi.Comm) {
			s := NewSystem(c)
			w := s.CreateShared(c.AllocShared(8192), DefaultConfig())
			must(w.Fence())
			if c.Rank() == 0 {
				must(w.Put(srcA, len(srcA), datatype.Byte, 1, 0))
			}
			must(w.Fence())                      // healthy: first put lands through the direct view
			c.Proc().Sleep(3 * time.Millisecond) // revocation strikes here
			if c.Rank() == 0 {
				if w.peers[1].degraded {
					t.Error("view degraded before any access observed the failure")
				}
				must(w.Put(srcB, len(srcB), datatype.Byte, 1, 4096))
				if !w.peers[1].degraded {
					t.Error("view not degraded after put through revoked segment")
				}
			}
			must(w.Fence())
			switch c.Rank() {
			case 0:
				got = w.Snapshot()
			case 1:
				if !bytes.Equal(w.LocalBytes()[:len(srcA)], srcA) {
					t.Error("pre-revocation put corrupted")
				}
				if !bytes.Equal(w.LocalBytes()[4096:4096+len(srcB)], srcB) {
					t.Error("post-revocation put not delivered via emulation")
				}
			}
		})
		return d, got
	}
	d1, st := run()
	if st.Degradations != 1 {
		t.Errorf("Degradations = %d, want 1", st.Degradations)
	}
	if st.DirectPuts != 1 || st.EmulatedPuts != 1 {
		t.Errorf("puts = %d direct / %d emulated, want 1 / 1", st.DirectPuts, st.EmulatedPuts)
	}
	d2, st2 := run()
	if d1 != d2 || st != st2 {
		t.Errorf("same-seed degradation runs diverge: %v/%+v vs %v/%+v", d1, st, d2, st2)
	}
}

// TestLockTimeoutRecovery: under a 500 µs watchdog, Lock on a crashed
// node's shared window fails at once with sci.ErrConnectionLost, as Fence
// does, without sitting out the watchdog or counting a timeout, and
// succeeds normally once the node is restored.
func TestLockTimeoutRecovery(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(5).
		CrashNode(1, time.Millisecond).
		RestoreNode(1, 4*time.Millisecond)
	cfg.Protocol.CollTimeout = 500 * time.Microsecond
	src := fill(512)
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if c.Rank() == 0 {
			c.Proc().Sleep(1500 * time.Microsecond) // node 1 is down now
			before := c.Proc().Now()
			err := w.Lock(1)
			var lost sci.ErrConnectionLost
			if !errors.As(err, &lost) || lost.To != 1 {
				t.Fatalf("lock against crashed node: err = %v, want sci.ErrConnectionLost to node 1", err)
			}
			if took := c.Proc().Now() - before; took > 10*time.Microsecond {
				t.Errorf("the lock failed after %v, want within a few µs", took)
			}
			if n := expiries(c); n != 0 {
				t.Errorf("%d expired waits, want 0", n)
			}
			c.Proc().Sleep(3 * time.Millisecond) // past the restoration
			if err := w.Lock(1); err != nil {
				t.Fatalf("lock after restore failed: %v", err)
			}
			must(w.Put(src, len(src), datatype.Byte, 1, 0))
			must(w.Unlock(1))
		} else {
			c.Proc().Sleep(8 * time.Millisecond)
			if !bytes.Equal(w.LocalBytes()[:len(src)], src) {
				t.Error("put after recovery not delivered")
			}
		}
	})
}

// TestLockHeldByLivePeerTimesOut: on three nodes under a 300 µs watchdog,
// rank 2 holds rank 0's lock for 2 ms; rank 1's Lock of the same target,
// entered at 100 µs, fails no loss check and ends exactly at its deadline,
// 400 µs, with mpi's expiry, a *fault.Error of kind Timeout naming rank 0,
// counted once, on a shared and on a private window, and opens no epoch.
// Lock stops polling at the deadline: with rank 0's node dying at 401 µs, a
// last poll of the private window's handler without a bound would never be
// answered and end the run in the engine's deadlock panic.
func TestLockHeldByLivePeerTimesOut(t *testing.T) {
	const bound = 300 * time.Microsecond
	const enter = 100 * time.Microsecond
	for _, tc := range []struct {
		shared, crash bool
	}{{true, false}, {false, false}, {true, true}, {false, true}} {
		name := fmt.Sprintf("shared=%v", tc.shared)
		if tc.crash {
			name += ",target-dies-after-deadline"
		}
		t.Run(name, func(t *testing.T) {
			cfg := mpi.DefaultConfig(3, 1)
			cfg.Protocol.CollTimeout = bound
			if tc.crash {
				cfg.SCI.Fault = fault.New(5).CrashNode(0, enter+bound+time.Microsecond)
			}
			checked := false
			mpi.Run(cfg, func(c *mpi.Comm) {
				s := NewSystem(c)
				var w *Win
				if tc.shared {
					w = s.CreateShared(c.AllocShared(64), DefaultConfig())
				} else {
					w = s.CreatePrivate(make([]byte, 64), DefaultConfig())
				}
				p := c.Proc()
				switch c.Rank() {
				case 0:
					p.Sleep(3 * time.Millisecond) // its handler serves the lock
				case 1:
					p.Sleep(enter - p.Now()) // rank 2 holds the lock now
					n0 := expiries(c)
					err := w.Lock(0)
					var fe *fault.Error
					if !errors.As(err, &fe) || fe.Kind != fault.Timeout || fe.To != 0 {
						t.Errorf("lock held by a live peer: err = %v, want a *fault.Error of kind Timeout to rank 0", err)
					}
					if p.Now() != enter+bound {
						t.Errorf("lock held by a live peer gave up at %v, want its deadline %v", p.Now(), enter+bound)
					}
					if n := expiries(c) - n0; n != 1 {
						t.Errorf("%d expired waits, want 1", n)
					}
					if w.ep != epochNone {
						t.Error("a failed lock opened an epoch")
					}
					checked = true
				case 2:
					must(w.Lock(0))
					p.Sleep(2 * time.Millisecond)
					if err := w.Unlock(0); (err != nil) != tc.crash {
						t.Errorf("unlock: err = %v, want an error only after the target's crash", err)
					}
				}
			})
			if !checked {
				t.Error("rank 1 did not reach the check")
			}
		})
	}
}

// TestPutToDeadNodeSuspectsTarget: a Put toward a crashed node fails with
// sci.ErrConnectionLost and leaves the target in the failure detector's
// suspect set (its KSuspect record), as a send toward it does, so a later
// shrink agreement starts from what the one-sided layer saw.
func TestPutToDeadNodeSuspectsTarget(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(5).CrashNode(1, time.Millisecond)
	rec := flight.New(0)
	cfg.Flight = rec
	mpi.Run(cfg, func(c *mpi.Comm) {
		w := NewSystem(c).CreateShared(c.AllocShared(64), DefaultConfig())
		must(w.Fence())
		c.Proc().Sleep(2 * time.Millisecond) // node 1 is down now
		if c.Rank() == 0 {
			var lost sci.ErrConnectionLost
			if err := w.Put(fill(8), 8, datatype.Byte, 1, 0); !errors.As(err, &lost) {
				t.Errorf("put toward a dead node: err = %v, want sci.ErrConnectionLost", err)
			}
		}
	})
	suspects := 0
	for _, e := range rec.Snapshot("").Actor("rank1").Events {
		if e.KindOf() == flight.KSuspect {
			suspects++
		}
	}
	if suspects != 1 {
		t.Errorf("rank1 has %d KSuspect records, want 1", suspects)
	}
}

// TestUnlockOfLostTarget: a rank that holds a lock when the target's node
// crashes leaves the epoch with Unlock, which fails at once with the typed
// loss instead of waiting for a handler that will never answer, on private
// and shared windows, with and without a watchdog.
func TestUnlockOfLostTarget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shared  bool
		timeout time.Duration
	}{
		{"private/no-watchdog", false, 0},
		{"private/auto", false, mpi.AutoTimeout},
		{"shared/no-watchdog", true, 0},
		{"shared/auto", true, mpi.AutoTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mpi.DefaultConfig(2, 1)
			cfg.SCI.Fault = fault.New(5).CrashNode(1, time.Millisecond)
			cfg.Protocol.CollTimeout = tc.timeout
			src := fill(512)
			mpi.Run(cfg, func(c *mpi.Comm) {
				s := NewSystem(c)
				var w *Win
				if tc.shared {
					w = s.CreateShared(c.AllocShared(4096), DefaultConfig())
				} else {
					w = s.CreatePrivate(make([]byte, 4096), DefaultConfig())
				}
				if c.Rank() != 0 {
					c.Proc().Sleep(2 * time.Millisecond)
					return
				}
				must(w.Lock(1))
				c.Proc().Sleep(1500 * time.Microsecond) // node 1 is down now
				var lost sci.ErrConnectionLost
				if err := w.Put(src, len(src), datatype.Byte, 1, 0); err == nil {
					t.Error("put to a crashed node succeeded")
				}
				before := c.Proc().Now()
				if err := w.Unlock(1); !errors.As(err, &lost) {
					t.Errorf("unlock of a crashed node: err = %v, want sci.ErrConnectionLost", err)
				}
				// Closing the epoch's views may take a store barrier; the
				// release itself waits for nobody.
				if waited := c.Proc().Now() - before; waited > 100*time.Microsecond {
					t.Errorf("unlock of a known-lost target took %v", waited)
				}
				if w.ep != epochNone || w.lockHeld != -1 {
					t.Errorf("after a failed unlock: epoch %v, lock held on %d; want none", w.ep, w.lockHeld)
				}
			})
		})
	}
}

// TestPSCWOfLostPeer: Start and Wait toward a peer whose node crashed end
// with a typed error instead of hanging the run. A peer already known dead
// when the call starts fails it at once with sci.ErrConnectionLost, with or
// without a watchdog, and counts no expiry; a call that already waits when
// the peer's node dies ends at its watchdog with the same typed loss, as
// every mpi wait does, and counts one.
func TestPSCWOfLostPeer(t *testing.T) {
	const crashAt = time.Millisecond
	for _, tc := range []struct {
		name    string
		op      string // "start" or "wait"
		enter   time.Duration
		timeout time.Duration
	}{
		{"start/dead-at-entry/no-watchdog", "start", 2 * crashAt, 0},
		{"start/dead-at-entry/auto", "start", 2 * crashAt, mpi.AutoTimeout},
		{"wait/dead-at-entry/no-watchdog", "wait", 2 * crashAt, 0},
		{"wait/dead-at-entry/auto", "wait", 2 * crashAt, mpi.AutoTimeout},
		{"start/waiting-at-crash/auto", "start", 0, mpi.AutoTimeout},
		{"wait/waiting-at-crash/auto", "wait", 0, mpi.AutoTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mpi.DefaultConfig(2, 1)
			cfg.SCI.Fault = fault.New(5).CrashNode(1, crashAt)
			cfg.Protocol.CollTimeout = tc.timeout
			checked := false
			mpi.Run(cfg, func(c *mpi.Comm) {
				w := NewSystem(c).CreateShared(c.AllocShared(4096), DefaultConfig())
				p := c.Proc()
				if c.Rank() != 0 {
					p.Sleep(2 * crashAt) // never posts nor completes
					return
				}
				p.Sleep(tc.enter - p.Now())
				var err error
				before := p.Now()
				if tc.op == "start" {
					err = w.Start([]int{1})
				} else {
					must(w.Post([]int{1}))
					before = p.Now()
					err = w.Wait([]int{1})
				}
				took := p.Now() - before
				t.Logf("%s returned in %v: %v", tc.op, took, err)
				if tc.enter > crashAt {
					var lost sci.ErrConnectionLost
					if !errors.As(err, &lost) || lost.To != 1 {
						t.Errorf("%s toward a dead node: err = %v, want sci.ErrConnectionLost to node 1", tc.op, err)
					}
					if took > 10*time.Microsecond {
						t.Errorf("%s failed after %v, want within a few µs", tc.op, took)
					}
					if n := expiries(c); n != 0 {
						t.Errorf("%d expired waits, want 0", n)
					}
				} else {
					var lost sci.ErrConnectionLost
					if !errors.As(err, &lost) || lost.To != 1 {
						t.Errorf("%s waiting at the crash: err = %v, want sci.ErrConnectionLost to node 1", tc.op, err)
					}
					if took != w.timeout {
						t.Errorf("%s gave up after %v, want its watchdog of %v", tc.op, took, w.timeout)
					}
					if n := expiries(c); n != 1 {
						t.Errorf("%d expired waits, want 1", n)
					}
				}
				if w.ep != epochNone {
					t.Errorf("after a failed %s: epoch %v, want none", tc.op, w.ep)
				}
				checked = true
			})
			if !checked {
				t.Error("rank 0 did not reach the check")
			}
		})
	}
}

// TestFenceWatchdogNoDeadlock: Fence against a live peer that never
// arrives ends at its watchdog with mpi's expiry, a *fault.Error of kind
// Timeout naming that peer, instead of deadlocking the simulation.
func TestFenceWatchdogNoDeadlock(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	cfg.Protocol.CollTimeout = 300 * time.Microsecond
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(1024), DefaultConfig())
		if c.Rank() == 0 {
			before := c.Proc().Now()
			err := w.Fence()
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Kind != fault.Timeout || fe.To != 1 {
				t.Fatalf("fence without peer: err = %v, want a *fault.Error of kind Timeout to rank 1", err)
			}
			if took := c.Proc().Now() - before; took < w.timeout {
				t.Errorf("fence without peer gave up after %v, before its watchdog of %v", took, w.timeout)
			}
			if n := expiries(c); n != 1 {
				t.Errorf("%d expired waits, want 1", n)
			}
		} else {
			c.Proc().Sleep(time.Millisecond) // never fences
		}
	})
}

// TestFenceCheckedCompletesAndTransfers: when every rank arrives, fences
// under a watchdog behave exactly like unbounded ones (epochs open, puts
// land, no timeout counted).
func TestFenceCheckedCompletesAndTransfers(t *testing.T) {
	src := fill(1024)
	cfg := mpi.DefaultConfig(2, 1)
	cfg.Protocol.CollTimeout = time.Millisecond
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if err := w.Fence(); err != nil {
			t.Fatalf("opening fence failed: %v", err)
		}
		if c.Rank() == 0 {
			must(w.Put(src, len(src), datatype.Byte, 1, 100))
		}
		if err := w.Fence(); err != nil {
			t.Fatalf("closing fence failed: %v", err)
		}
		if c.Rank() == 1 && !bytes.Equal(w.LocalBytes()[100:100+len(src)], src) {
			t.Error("put not visible after the fence")
		}
		if n := expiries(c); n != 0 {
			t.Errorf("%d spurious expired waits", n)
		}
	})
}

// TestDegradedSharedTargetUsesInterruptDelivery: regression for the
// delivery-path bug — the remote-put and accumulate paths chose polled
// delivery for any shared-window target, but a degraded shared target may
// be stuck in a broken transfer and not polling. The fallback Get toward a
// degraded shared target must complete and arrive via remote interrupt.
func TestDegradedSharedTargetUsesInterruptDelivery(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(13).RevokeSegment(1, 1, time.Millisecond)
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if c.Rank() == 1 {
			copy(w.LocalBytes(), fill(1024))
		}
		must(w.Fence())
		c.Proc().Sleep(2 * time.Millisecond) // revocation strikes here
		if c.Rank() == 0 {
			before := c.World().WorldStats().OSCInterrupt
			dst := make([]byte, 1024)
			must(w.Get(dst, len(dst), datatype.Byte, 1, 0))
			if !bytes.Equal(dst, fill(1024)) {
				t.Error("degraded get returned wrong data")
			}
			if !w.peers[1].degraded {
				t.Error("target view not degraded after revoked-segment get")
			}
			if c.World().WorldStats().OSCInterrupt == before {
				t.Error("fallback get toward degraded shared target used polled delivery")
			}
		}
		must(w.Fence())
	})
}

// TestDegradedGetFallsBackToRemotePut: a revoked target segment degrades
// the direct-get path too; the remote-put path still returns the data.
func TestDegradedGetFallsBackToRemotePut(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(13).RevokeSegment(1, 1, time.Millisecond)
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if c.Rank() == 1 {
			copy(w.LocalBytes(), fill(1024))
		}
		must(w.Fence())
		c.Proc().Sleep(2 * time.Millisecond) // revocation strikes here
		if c.Rank() == 0 {
			dst := make([]byte, 1024)
			must(w.Get(dst, len(dst), datatype.Byte, 1, 0))
			if !bytes.Equal(dst, fill(1024)) {
				t.Error("degraded get returned wrong data")
			}
			if w.Snapshot().Degradations != 1 || w.Snapshot().RemotePuts != 1 {
				t.Errorf("stats = %+v, want 1 degradation, 1 remote-put", w.Snapshot())
			}
		}
		must(w.Fence())
	})
}

// TestImportDeniedAtCreateDegrades: a denied import of a peer's window
// segment while the window is created degrades that peer from the start, as
// a revoked segment does, instead of failing the creation. Rank 0 then
// reaches rank 1 by emulation only, and a Put/Get/Accumulate fence epoch
// leaves both sides equal to a host reference.
func TestImportDeniedAtCreateDegrades(t *testing.T) {
	const size, putOff, getOff, accOff = 8192, 0, 2048, 4096
	put, init := fill(512), fill(size)
	adds := make([]byte, 16*8)
	for i := range 16 {
		binary.LittleEndian.PutUint64(adds[8*i:], uint64(1000+i))
	}
	// Host reference of rank 1's window after the epoch.
	ref := bytes.Clone(init)
	copy(ref[putOff:], put)
	for i := range 16 {
		at := ref[accOff+8*i:]
		binary.LittleEndian.PutUint64(at, binary.LittleEndian.Uint64(at)+uint64(1000+i))
	}
	cfg := mpi.DefaultConfig(2, 1)
	// Segment 0 of each node is the MPI port; the window is segment 1.
	cfg.SCI.Fault = fault.New(1).FailImports(1, 1, 1)
	var st [2]Stats
	var got, final []byte
	mpi.Run(cfg, func(c *mpi.Comm) {
		w := NewSystem(c).CreateShared(c.AllocShared(size), DefaultConfig())
		if c.Rank() == 1 {
			copy(w.LocalBytes(), init)
		}
		must(w.Fence())
		if c.Rank() == 0 {
			must(w.Put(put, len(put), datatype.Byte, 1, putOff))
			got = make([]byte, 1024)
			must(w.Get(got, len(got), datatype.Byte, 1, getOff))
			must(w.Accumulate(adds, 16, datatype.Int64, mpi.OpSum, 1, accOff))
		}
		must(w.Fence())
		st[c.Rank()] = w.Snapshot()
		if c.Rank() == 1 {
			final = bytes.Clone(w.LocalBytes())
		}
	})
	if st[0].Degradations != 1 || st[1].Degradations != 0 {
		t.Errorf("degradations = %d at rank 0, %d at rank 1; want 1, 0", st[0].Degradations, st[1].Degradations)
	}
	if st[0].DirectPuts != 0 || st[0].EmulatedPuts != 1 || st[0].DirectGets != 0 || st[0].RemotePuts != 1 {
		t.Errorf("rank 0 stats = %+v, want the put emulated and the get by remote-put", st[0])
	}
	if !bytes.Equal(got, init[getOff:getOff+1024]) {
		t.Error("get through the degraded peer differs from the reference")
	}
	if !bytes.Equal(final, ref) {
		t.Error("rank 1's window after the epoch differs from the host reference")
	}
}

// TestEachExpiryCountsOnce: an emulated Put whose handler call outlives a
// 100 ns bound returns mpi's expiry and adds exactly 1 to mpi's count of
// expired waits, the only count of them. (A Lock that runs out counts once
// too: TestLockHeldByLivePeerTimesOut.)
func TestEachExpiryCountsOnce(t *testing.T) {
	runCluster(2, 1, func(c *mpi.Comm) {
		w := NewSystem(c).CreatePrivate(make([]byte, 64), DefaultConfig())
		must(w.Fence())
		if c.Rank() == 0 {
			w.timeout = 100 * time.Nanosecond
			n0 := expiries(c)
			var fe *fault.Error
			if err := w.Put(fill(8), 8, datatype.Byte, 1, 0); !errors.As(err, &fe) || fe.Kind != fault.Timeout || fe.To != 1 {
				t.Errorf("put under a 100ns bound: err = %v, want a *fault.Error of kind Timeout to rank 1", err)
			}
			if n := expiries(c) - n0; n != 1 {
				t.Errorf("an expired put counted %d expired waits, want 1", n)
			}
			w.timeout = 0
		}
		must(w.Fence())
	})
}

// TestLateReplyNeverTakenByLaterCall: call records and reply channels are
// recycled only after their reply was read. A window whose bound is
// shorter than one emulated round trip (set between its fences, which
// would expire under it too) lets an inline accumulate and a remote-put get
// expire before the handler answers; their replies arrive
// later, while the same rank's next calls, on a window with the automatic
// watchdog's bound, wait for theirs. Each of those must see its own reply and its
// own bytes, and the expired request record must never go back to the free
// list. The late accumulate still lands: the handler served it.
func TestLateReplyNeverTakenByLaterCall(t *testing.T) {
	const size = 4096
	ones := make([]byte, 32)
	for i := 0; i < len(ones); i += 8 {
		binary.LittleEndian.PutUint64(ones[i:], 1)
	}
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		a := s.CreatePrivate(make([]byte, size), DefaultConfig())
		b := s.CreatePrivate(fill(size), DefaultConfig())
		b.timeout = c.World().ScaledSyncTimeout()
		must(a.Fence())
		must(b.Fence())
		if c.Rank() == 0 {
			got := make([]byte, 64)
			if err := b.Get(got, len(got), datatype.Byte, 1, 0); err != nil || !bytes.Equal(got, fill(size)[:64]) {
				t.Fatalf("warm-up get: err = %v, bytes match = %v", err, bytes.Equal(got, fill(size)[:64]))
			}
			if len(s.reqFree) != 1 {
				t.Fatalf("%d request records free after one call, want 1", len(s.reqFree))
			}
			expired := s.reqFree[0] // the next call takes it
			a.timeout = 100 * time.Nanosecond
			n0 := expiries(c)
			var fe *fault.Error
			if err := a.Accumulate(ones, 4, datatype.Int64, mpi.OpSum, 1, 0); !errors.As(err, &fe) || fe.Kind != fault.Timeout {
				t.Fatalf("accumulate under a 100ns watchdog: err = %v, want a *fault.Error of kind Timeout", err)
			}
			if err := a.Get(got, len(got), datatype.Byte, 1, 0); !errors.As(err, &fe) || fe.Kind != fault.Timeout {
				t.Fatalf("remote-put get under a 100ns watchdog: err = %v, want a *fault.Error of kind Timeout", err)
			}
			n1 := expiries(c)
			a.timeout = 0
			if len(s.reqFree) != 0 {
				t.Fatalf("%d request records went back to the free list after expired calls", len(s.reqFree))
			}
			for i := int64(0); i < 4; i++ {
				val := fill(64)
				val[0] = byte(i)
				if err := b.Put(val, len(val), datatype.Byte, 1, 1024+64*i); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				if err := b.Get(got, len(got), datatype.Byte, 1, 64*i); err != nil {
					t.Fatalf("get %d: %v", i, err)
				}
				if want := fill(size)[64*i : 64*i+64]; !bytes.Equal(got, want) {
					t.Errorf("get %d returned bytes that are not its own", i)
				}
				if err := b.Accumulate(ones, 4, datatype.Int64, mpi.OpSum, 1, 2048+32*i); err != nil {
					t.Fatalf("accumulate %d: %v", i, err)
				}
				for _, r := range s.reqFree {
					if r == expired {
						t.Fatalf("the record of an expired call was recycled by call %d", i)
					}
				}
			}
			if n := n1 - n0; n != 2 {
				t.Errorf("%d expired waits on the fast window, want 2", n)
			}
		}
		must(b.Fence())
		must(a.Fence())
		if c.Rank() == 1 {
			if v := binary.LittleEndian.Uint64(a.LocalBytes()); v != 1 {
				t.Errorf("late accumulate: window holds %d, want 1", v)
			}
			win := b.LocalBytes()
			for i := int64(0); i < 4; i++ {
				val := fill(64)
				val[0] = byte(i)
				if !bytes.Equal(win[1024+64*i:1088+64*i], val) {
					t.Errorf("put %d not delivered", i)
				}
				want := binary.LittleEndian.Uint64(fill(size)[2048+32*i:]) + 1
				if v := binary.LittleEndian.Uint64(win[2048+32*i:]); v != want {
					t.Errorf("accumulate %d: window holds %d, want %d", i, v, want)
				}
			}
		}
	})
}

var faultSeed = flag.Uint64("fault.seed", 42, "seed for the fault plan of TestEmulatedTransfersRetryAsSend")

// TestEmulatedTransfersRetryAsSend: under a plan of failed PIO writes, the
// emulated calls of a private window retry as Send does
// (mpi.Comm.RetryTransfer). Each round makes a staged Put and a remote-put
// Get of a derived origin (every other double of a vector) and a staged
// dense Accumulate; each returns nil, the target's window and the got
// buffers equal a host reference, and every accumulate combined exactly
// once. The plan strikes at least one retry. -fault.seed picks the plan's
// draws.
func TestEmulatedTransfersRetryAsSend(t *testing.T) {
	const rounds, elems = 8, 256
	vec := datatype.Vector(elems, 1, 2, datatype.Float64).Commit()
	span, n := vec.Span(1), vec.Size()
	putAt, getAt, accAt := int64(0), rounds*span, 2*rounds*span
	init := fill(int(accAt + rounds*n))
	src := make([][]byte, rounds)
	for i := range src {
		src[i] = fill(int(span))
		for j := range src[i] {
			src[i][j] ^= byte(i * 37)
		}
	}
	cfg := mpi.DefaultConfig(2, 1)
	cfg.Protocol.CollTimeout = mpi.AutoTimeout
	cfg.SCI.Fault = fault.New(*faultSeed).WithWriteErrors(0.2)
	var win []byte
	got := make([][]byte, rounds)
	var retries int64
	mpi.Run(cfg, func(c *mpi.Comm) {
		w := NewSystem(c).CreatePrivate(append([]byte(nil), init...), DefaultConfig())
		must(w.Fence())
		if c.Rank() == 0 {
			for i := range rounds {
				off := int64(i)
				if err := w.Put(src[i], 1, vec, 1, putAt+off*span); err != nil {
					t.Errorf("round %d: put: %v", i, err)
				}
				got[i] = make([]byte, span)
				if err := w.Get(got[i], 1, vec, 1, getAt+off*span); err != nil {
					t.Errorf("round %d: get: %v", i, err)
				}
				if err := w.Accumulate(src[i][:n], int(n/8), datatype.Int64, mpi.OpSum, 1, accAt+off*n); err != nil {
					t.Errorf("round %d: accumulate: %v", i, err)
				}
			}
		}
		must(w.Fence())
		if c.Rank() == 1 {
			win = w.LocalBytes()
			retries = c.World().Stats(0).SendRetries
		}
	})

	want := append([]byte(nil), init...)
	for i := range rounds {
		off := int64(i)
		wantGot := make([]byte, span)
		pack.Walk(vec, 1, func(o, size int64) {
			copy(want[putAt+off*span+o:], src[i][o:o+size])
			copy(wantGot[o:o+size], init[getAt+off*span+o:])
		})
		if !bytes.Equal(got[i], wantGot) {
			t.Errorf("round %d: get returned other bytes than the target's window", i)
		}
		for j := int64(0); j < n; j += 8 {
			at := accAt + off*n + j
			binary.LittleEndian.PutUint64(want[at:], binary.LittleEndian.Uint64(init[at:])+binary.LittleEndian.Uint64(src[i][j:]))
		}
	}
	if !bytes.Equal(win, want) {
		t.Error("the target's window differs from the host reference (a put lost, or an accumulate not combined exactly once)")
	}
	if retries == 0 {
		t.Error("the plan struck no retry: the test proves nothing on this seed")
	}
}

// TestCreateReturnsAfterMemberCrash: a member crashing while the others
// wait in window creation leaves them a window, not a panic. On 4x1 under
// the automatic watchdog, node 3 crashes at 200 µs while ranks 0-2 wait in
// CreateShared, which rank 3 would enter at 1 ms, or never. Every
// survivor's CreateShared returns once its watchdog ran out, holding rank
// 3's window as found then: present on the dead node, or absent, with no
// size to check an access against. Either way its Fence fails with
// sci.ErrConnectionLost toward node 3, and so does a Put to rank 3 inside a
// lock epoch, not with an *mpi.ArgumentError. The Put's refusal is its
// KError against rank 3; a Put to a rank outside the group records nothing.
func TestCreateReturnsAfterMemberCrash(t *testing.T) {
	for _, enters := range []bool{true, false} {
		t.Run(fmt.Sprintf("enters=%v", enters), func(t *testing.T) {
			cfg := mpi.DefaultConfig(4, 1)
			cfg.SCI.Fault = fault.New(5).CrashNode(3, 200*time.Microsecond)
			cfg.Protocol.CollTimeout = mpi.AutoTimeout
			cfg.Flight = flight.New(0)
			checked := 0
			mpi.Run(cfg, func(c *mpi.Comm) {
				s := NewSystem(c)
				seg := c.AllocShared(4096)
				me := c.Rank()
				if me == 3 {
					if enters {
						c.Proc().Sleep(time.Millisecond)
						s.CreateShared(seg, DefaultConfig())
					}
					return
				}
				w := s.CreateShared(seg, DefaultConfig())
				if absent := w.peers[3].size == -1; absent == enters {
					t.Errorf("rank %d: rank 3's row has size %d", me, w.peers[3].size)
				}
				var lost sci.ErrConnectionLost
				if err := w.Fence(); !errors.As(err, &lost) || lost.To != 3 {
					t.Errorf("rank %d: fence after the crash: err = %v, want sci.ErrConnectionLost to node 3", me, err)
				}
				must(w.Lock(me))
				err := w.Put(fill(8), 8, datatype.Byte, 3, 0)
				var arg *mpi.ArgumentError
				if errors.As(err, &arg) || !errors.As(err, &lost) || lost.To != 3 {
					t.Errorf("rank %d: put to the crashed rank: err = %v, want sci.ErrConnectionLost to node 3", me, err)
				}
				evs := c.FlightRing().Events()
				last := evs[len(evs)-1]
				if last.Kind != flight.KError || last.A != int64(flight.OpPut) || last.B != 3 {
					t.Errorf("rank %d: last flight event %s op %d peer %d, want the put's KError against rank 3", me, last.Kind, last.A, last.B)
				}
				if err := w.Put(fill(8), 8, datatype.Byte, 4, 0); !errors.As(err, &arg) {
					t.Errorf("rank %d: put to rank 4 of 4: err = %v, want an *mpi.ArgumentError", me, err)
				}
				if evs := c.FlightRing().Events(); evs[len(evs)-1].Seq != last.Seq {
					t.Errorf("rank %d: an argument error was recorded as %s", me, evs[len(evs)-1].Kind)
				}
				must(w.Unlock(me))
				checked++
			})
			if checked != 3 {
				t.Errorf("%d survivors reached the checks, want 3", checked)
			}
		})
	}
}

// TestOldWindowKeepsItsCommunicator: Rebind moves the engine and the
// windows created next, not the windows created before. On 3x1 under the
// automatic watchdog, node 1 crashes at 500 µs; ranks 0 and 2 shrink,
// rebind and work a fresh window, and a Fence on the old window then fails
// with the dead member's loss (*mpi.RevokedRankError for rank 1), reading
// the old window's group of three.
func TestOldWindowKeepsItsCommunicator(t *testing.T) {
	cfg := mpi.DefaultConfig(3, 1)
	cfg.SCI.Fault = fault.New(5).CrashNode(1, 500*time.Microsecond)
	cfg.Protocol.CollTimeout = mpi.AutoTimeout
	checked := 0
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		old := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		must(old.Fence())
		if c.Rank() == 1 {
			return
		}
		c.Proc().Sleep(time.Millisecond - c.Proc().Now())
		nc := must1(c.Shrink())
		s.Rebind(nc)
		fresh := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		must(fresh.Fence())
		must(fresh.Put(fill(64), 64, datatype.Byte, 1-nc.Rank(), 0))
		must(fresh.Fence())
		if !bytes.Equal(fresh.LocalBytes()[:64], fill(64)) {
			t.Errorf("rank %d: the fresh window did not receive its peer's put", c.Rank())
		}
		var rev *mpi.RevokedRankError
		if err := old.Fence(); !errors.As(err, &rev) || rev.Rank != 1 {
			t.Errorf("rank %d: fence on the old window: err = %v, want *mpi.RevokedRankError for rank 1", c.Rank(), err)
		}
		checked++
	})
	if checked != 2 {
		t.Errorf("%d survivors reached the checks, want 2", checked)
	}
}

// TestAgreementRevokesWindows: on a 3×1 world with a shared and a private
// window, node 2 crashes after announcing a fence round on the shared one.
// Rank 0 fails a Put to rank 2 and enters Shrink. Rank 1 touches only rank
// 0 and itself, so no loss rule refuses its calls: its next Put, Get or
// Fence on the shared window, or Lock on the private one, after rank 0's
// arrival became visible is refused with mpi.CommRevokedError, recorded as
// the call's KError, without counting a watchdog expiry, and an access at
// rank 0's arrival instant still goes ahead. Rank 1 then shrinks, both
// adopt [0 1], a fresh window works, and the old private window's Fence
// still fails with rank 2's *mpi.RevokedRankError.
func TestAgreementRevokesWindows(t *testing.T) {
	type access struct {
		op   flight.Op
		poll bool // polled from before rank 0's arrival; else called once after it
		call func(shared, private *Win) error
	}
	src := fill(64)
	for name, a := range map[string]access{
		"put": {flight.OpPut, true, func(shared, _ *Win) error {
			return shared.Put(src, len(src), datatype.Byte, 1, 0)
		}},
		"get": {flight.OpGet, true, func(shared, _ *Win) error {
			return shared.Get(make([]byte, 64), 64, datatype.Byte, 0, 0)
		}},
		"fence": {flight.OpFence, false, func(shared, _ *Win) error { return shared.Fence() }},
		"lock":  {flight.OpLock, false, func(_, private *Win) error { return private.Lock(0) }},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := mpi.DefaultConfig(3, 1)
			cfg.SCI.Fault = fault.New(3).CrashNode(2, 200*time.Microsecond)
			cfg.Protocol.CollTimeout = mpi.AutoTimeout
			cfg.Flight = flight.New(0)
			var entered, lastOK, refused time.Duration
			checked := 0
			mpi.Run(cfg, func(c *mpi.Comm) {
				p := c.Proc()
				s := NewSystem(c)
				shared := s.CreateShared(c.AllocShared(4096), DefaultConfig())
				private := s.CreatePrivate(make([]byte, 4096), DefaultConfig())
				must(shared.Fence()) // the private window stays outside an epoch, for Lock
				switch c.Rank() {
				case 2:
					p.Sleep(150*time.Microsecond - p.Now())
					_ = shared.Fence() // announced to both peers; the node dies while it waits
					return
				case 0:
					p.Sleep(300*time.Microsecond - p.Now())
					if err := shared.Put(src, len(src), datatype.Byte, 2, 0); err == nil {
						t.Error("rank 0: put to the crashed rank 2 succeeded")
					}
					entered = p.Now()
				case 1:
					if a.poll {
						p.Sleep(280*time.Microsecond - p.Now())
					} else {
						p.Sleep(400*time.Microsecond - p.Now())
					}
					for {
						at, expired := p.Now(), expiries(c)
						err := a.call(shared, private)
						if n := expiries(c) - expired; n != 0 {
							t.Errorf("rank 1: %s counted %d watchdog expiries", name, n)
						}
						if err != nil {
							refused = at
							var cre mpi.CommRevokedError
							var rre *mpi.RevokedRankError
							if !errors.As(err, &cre) || errors.As(err, &rre) {
								t.Errorf("rank 1: %s refused with %T %v, want mpi.CommRevokedError", name, err, err)
							}
							evs := c.FlightRing().Events()
							if e := evs[len(evs)-1]; e.Kind != flight.KError || e.A != int64(a.op) {
								t.Errorf("rank 1: last flight event %s op %d, want the %s's KError", e.Kind, e.A, name)
							}
							break
						}
						if !a.poll {
							t.Fatalf("rank 1: %s went ahead after rank 0 entered Shrink", name)
						}
						lastOK = at
						p.Sleep(time.Microsecond)
					}
				}
				nc := must1(c.Shrink())
				if nc.Size() != 2 || nc.GroupToWorld(0) != 0 || nc.GroupToWorld(1) != 1 {
					t.Errorf("rank %d: adopted a group of %d, want [0 1]", c.Rank(), nc.Size())
					return
				}
				s.Rebind(nc)
				fresh := s.CreateShared(c.AllocShared(4096), DefaultConfig())
				must(fresh.Fence())
				must(fresh.Put(src, len(src), datatype.Byte, 1-nc.Rank(), 0))
				must(fresh.Fence())
				if !bytes.Equal(fresh.LocalBytes()[:64], src) {
					t.Errorf("rank %d: the fresh window did not receive its peer's put", c.Rank())
				}
				var rev *mpi.RevokedRankError
				if err := private.Fence(); !errors.As(err, &rev) || rev.Rank != 2 {
					t.Errorf("rank %d: fence on the old window: err = %v, want *mpi.RevokedRankError for rank 2", c.Rank(), err)
				}
				checked++
			})
			if checked != 2 {
				t.Fatalf("%d survivors reached the checks, want 2", checked)
			}
			if refused <= entered {
				t.Errorf("rank 1 refused at %v, before rank 0 entered Shrink at %v", refused, entered)
			}
			if a.poll && lastOK < entered {
				t.Errorf("rank 1's last access that went ahead was at %v, before rank 0 entered Shrink at %v: the arrival is not free knowledge", lastOK, entered)
			}
		})
	}
}

// TestLostRankRefusesItself: on a 2×1 world with the default configuration
// (no watchdog), node 1 dies at 1 ms and rank 1 calls at 2 ms. Every data
// and synchronization call of a rank on a dead node refuses itself through
// the pair rule of mpi.Comm.Lost, on a shared and on a private window: it
// returns the caller's own *mpi.RevokedRankError, records one KError and
// spends no virtual time: a fence refuses before its closing store barrier.
func TestLostRankRefusesItself(t *testing.T) {
	src := fill(64)
	type row struct {
		fence bool // both ranks open a fence epoch before the crash
		call  func(w *Win) error
	}
	rows := map[string]row{
		"put to rank 0": {true, func(w *Win) error { return w.Put(src, len(src), datatype.Byte, 0, 0) }},
		"put to itself": {true, func(w *Win) error { return w.Put(src, len(src), datatype.Byte, 1, 0) }},
		"get":           {true, func(w *Win) error { return w.Get(make([]byte, 64), 64, datatype.Byte, 0, 0) }},
		"accumulate": {true, func(w *Win) error {
			return w.Accumulate(make([]byte, 64), 8, datatype.Float64, mpi.OpSum, 0, 0)
		}},
		"fence": {true, (*Win).Fence},
		"lock":  {false, func(w *Win) error { return w.Lock(0) }},
	}
	for _, shared := range []bool{true, false} {
		for name, r := range rows {
			t.Run(fmt.Sprintf("shared=%v/%s", shared, name), func(t *testing.T) {
				cfg := mpi.DefaultConfig(2, 1)
				cfg.SCI.Fault = fault.New(1).CrashNode(1, time.Millisecond)
				cfg.Flight = flight.New(0)
				called := false
				mpi.Run(cfg, func(c *mpi.Comm) {
					s := NewSystem(c)
					var w *Win
					if shared {
						w = s.CreateShared(c.AllocShared(4096), DefaultConfig())
					} else {
						w = s.CreatePrivate(make([]byte, 4096), DefaultConfig())
					}
					if r.fence {
						must(w.Fence())
					}
					if c.Rank() == 0 {
						return
					}
					p := c.Proc()
					p.Sleep(2*time.Millisecond - p.Now())
					errorsBefore := kErrors(c)
					err := r.call(w)
					var rev *mpi.RevokedRankError
					if !errors.As(err, &rev) || rev.Rank != 1 {
						t.Errorf("err = %T %v, want *mpi.RevokedRankError for rank 1", err, err)
					}
					if spent := p.Now() - 2*time.Millisecond; spent != 0 {
						t.Errorf("the refusal took %v of virtual time, want none", spent)
					}
					if n := kErrors(c) - errorsBefore; n != 1 {
						t.Errorf("%d KError events, want 1", n)
					}
					called = true
				})
				if !called {
					t.Fatal("rank 1 never made its call")
				}
			})
		}
	}
}

// kErrors counts the KError events on the calling rank's flight ring.
func kErrors(c *mpi.Comm) int {
	n := 0
	for _, e := range c.FlightRing().Events() {
		if e.Kind == flight.KError {
			n++
		}
	}
	return n
}
