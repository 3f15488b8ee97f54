package osc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
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
				if w.degraded[1] {
					t.Error("view degraded before any access observed the failure")
				}
				must(w.Put(srcB, len(srcB), datatype.Byte, 1, 4096))
				if !w.degraded[1] {
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

// TestLockTimeoutRecovery: Lock against a crashed node returns a
// typed ErrSyncTimeout within the watchdog budget, and succeeds normally
// once the node is restored.
func TestLockTimeoutRecovery(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(5).
		CrashNode(1, time.Millisecond).
		RestoreNode(1, 4*time.Millisecond)
	oscCfg := DefaultConfig()
	oscCfg.SyncTimeout = 500 * time.Microsecond
	src := fill(512)
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), oscCfg)
		if c.Rank() == 0 {
			c.Proc().Sleep(1500 * time.Microsecond) // node 1 is down now
			err := w.Lock(1)
			var st ErrSyncTimeout
			if !errors.As(err, &st) {
				t.Fatalf("lock against crashed node: err = %v, want ErrSyncTimeout", err)
			}
			if st.Op != "lock" || st.Target != 1 || st.Waited < oscCfg.SyncTimeout {
				t.Errorf("timeout detail = %+v", st)
			}
			if w.Snapshot().SyncTimeouts != 1 {
				t.Errorf("SyncTimeouts = %d, want 1", w.Snapshot().SyncTimeouts)
			}
			c.Proc().Sleep(3 * time.Millisecond) // past the restoration
			if err := w.Lock(1); err != nil {
				t.Fatalf("lock after restore failed: %v", err)
			}
			must(w.Put(src, len(src), datatype.Byte, 1, 0))
			w.Unlock(1)
		} else {
			c.Proc().Sleep(8 * time.Millisecond)
			if !bytes.Equal(w.LocalBytes()[:len(src)], src) {
				t.Error("put after recovery not delivered")
			}
		}
	})
}

// TestFenceWatchdogNoDeadlock: Fence against a peer that never
// arrives returns ErrSyncTimeout instead of deadlocking the simulation.
func TestFenceWatchdogNoDeadlock(t *testing.T) {
	oscCfg := DefaultConfig()
	oscCfg.SyncTimeout = 300 * time.Microsecond
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(1024), oscCfg)
		if c.Rank() == 0 {
			err := w.Fence()
			var st ErrSyncTimeout
			if !errors.As(err, &st) {
				t.Fatalf("fence without peer: err = %v, want ErrSyncTimeout", err)
			}
			if st.Op != "fence" || st.Target != -1 {
				t.Errorf("timeout detail = %+v", st)
			}
			if w.Snapshot().SyncTimeouts != 1 {
				t.Errorf("SyncTimeouts = %d, want 1", w.Snapshot().SyncTimeouts)
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
	oscCfg := DefaultConfig()
	oscCfg.SyncTimeout = time.Millisecond
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), oscCfg)
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
		if w.Snapshot().SyncTimeouts != 0 {
			t.Errorf("spurious SyncTimeouts = %d", w.Snapshot().SyncTimeouts)
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
			if !w.degraded[1] {
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

// TestLateReplyNeverTakenByLaterCall: call records and reply channels are
// recycled only after their reply was read. A window whose SyncTimeout is
// shorter than one emulated round trip (set between its fences, which
// would expire under it too) lets an inline accumulate and a remote-put get
// expire before the handler answers; their replies arrive
// later, while the same rank's next calls, on a window with the automatic
// watchdog, wait for theirs. Each of those must see its own reply and its
// own bytes, and the expired request record must never go back to the free
// list. The late accumulate still lands: the handler served it.
func TestLateReplyNeverTakenByLaterCall(t *testing.T) {
	const size = 4096
	auto := DefaultConfig()
	auto.SyncTimeout = mpi.AutoTimeout
	ones := make([]byte, 32)
	for i := 0; i < len(ones); i += 8 {
		binary.LittleEndian.PutUint64(ones[i:], 1)
	}
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		a := s.CreatePrivate(make([]byte, size), DefaultConfig())
		b := s.CreatePrivate(fill(size), auto)
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
			a.cfg.SyncTimeout = 100 * time.Nanosecond
			var st ErrSyncTimeout
			if err := a.Accumulate(ones, 4, datatype.Int64, mpi.OpSum, 1, 0); !errors.As(err, &st) {
				t.Fatalf("accumulate under a 100ns watchdog: err = %v, want ErrSyncTimeout", err)
			}
			if err := a.Get(got, len(got), datatype.Byte, 1, 0); !errors.As(err, &st) {
				t.Fatalf("remote-put get under a 100ns watchdog: err = %v, want ErrSyncTimeout", err)
			}
			a.cfg.SyncTimeout = 0
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
			if n := a.Snapshot().SyncTimeouts; n != 2 {
				t.Errorf("SyncTimeouts = %d on the fast window, want 2", n)
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
