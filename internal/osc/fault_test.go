package osc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
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
			w.Fence()
			if c.Rank() == 0 {
				w.Put(srcA, len(srcA), datatype.Byte, 1, 0)
			}
			w.Fence()                            // healthy: first put lands through the direct view
			c.Proc().Sleep(3 * time.Millisecond) // revocation strikes here
			if c.Rank() == 0 {
				if w.Degraded(1) {
					t.Error("view degraded before any access observed the failure")
				}
				w.Put(srcB, len(srcB), datatype.Byte, 1, 4096)
				if !w.Degraded(1) {
					t.Error("view not degraded after put through revoked segment")
				}
			}
			w.Fence()
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

// TestLockTimeoutRecovery: LockChecked against a crashed node returns a
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
			err := w.LockChecked(1)
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
			if err := w.LockChecked(1); err != nil {
				t.Fatalf("lock after restore failed: %v", err)
			}
			w.Put(src, len(src), datatype.Byte, 1, 0)
			w.Unlock(1)
		} else {
			c.Proc().Sleep(8 * time.Millisecond)
			if !bytes.Equal(w.LocalBytes()[:len(src)], src) {
				t.Error("put after recovery not delivered")
			}
		}
	})
}

// TestFenceWatchdogNoDeadlock: FenceChecked against a peer that never
// arrives returns ErrSyncTimeout instead of deadlocking the simulation.
func TestFenceWatchdogNoDeadlock(t *testing.T) {
	oscCfg := DefaultConfig()
	oscCfg.SyncTimeout = 300 * time.Microsecond
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(1024), oscCfg)
		if c.Rank() == 0 {
			err := w.FenceChecked()
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

// TestFenceCheckedCompletesAndTransfers: when every rank arrives, checked
// fences behave exactly like plain fences (epochs open, puts land).
func TestFenceCheckedCompletesAndTransfers(t *testing.T) {
	src := fill(1024)
	oscCfg := DefaultConfig()
	oscCfg.SyncTimeout = time.Millisecond
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), oscCfg)
		if err := w.FenceChecked(); err != nil {
			t.Fatalf("opening fence failed: %v", err)
		}
		if c.Rank() == 0 {
			w.Put(src, len(src), datatype.Byte, 1, 100)
		}
		if err := w.FenceChecked(); err != nil {
			t.Fatalf("closing fence failed: %v", err)
		}
		if c.Rank() == 1 && !bytes.Equal(w.LocalBytes()[100:100+len(src)], src) {
			t.Error("put not visible after checked fence")
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
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	interrupts := reg.Counter(obs.Name("mpi.osc.calls", "delivery", "interrupt"))
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if c.Rank() == 1 {
			copy(w.LocalBytes(), fill(1024))
		}
		w.Fence()
		c.Proc().Sleep(2 * time.Millisecond) // revocation strikes here
		if c.Rank() == 0 {
			before := interrupts.Value()
			dst := make([]byte, 1024)
			w.Get(dst, len(dst), datatype.Byte, 1, 0)
			if !bytes.Equal(dst, fill(1024)) {
				t.Error("degraded get returned wrong data")
			}
			if !w.Degraded(1) {
				t.Error("target view not degraded after revoked-segment get")
			}
			if interrupts.Value() == before {
				t.Error("fallback get toward degraded shared target used polled delivery")
			}
		}
		w.Fence()
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
		w.Fence()
		c.Proc().Sleep(2 * time.Millisecond) // revocation strikes here
		if c.Rank() == 0 {
			dst := make([]byte, 1024)
			w.Get(dst, len(dst), datatype.Byte, 1, 0)
			if !bytes.Equal(dst, fill(1024)) {
				t.Error("degraded get returned wrong data")
			}
			if w.Snapshot().Degradations != 1 || w.Snapshot().RemotePuts != 1 {
				t.Errorf("stats = %+v, want 1 degradation, 1 remote-put", w.Snapshot())
			}
		}
		w.Fence()
	})
}
