package sci

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/sim"
)

// faultyCluster builds an engine plus interconnect driven by the plan.
func faultyCluster(n int, plan *fault.Plan) (*sim.Engine, *Interconnect) {
	e := sim.NewEngine()
	cfg := DefaultConfig(n)
	cfg.Fault = plan
	return e, New(e, cfg)
}

func TestPlanSchedulesCrashAndRestore(t *testing.T) {
	plan := fault.New(1).
		CrashNode(1, time.Millisecond).
		RestoreNode(1, 3*time.Millisecond)
	e, ic := faultyCluster(2, plan)
	e.Go("observer", func(p *sim.Proc) {
		if !ic.Alive(1) {
			t.Error("node 1 dead before scheduled crash")
		}
		p.Sleep(2 * time.Millisecond)
		if ic.Alive(1) {
			t.Error("node 1 alive after scheduled crash")
		}
		p.Sleep(2 * time.Millisecond)
		if !ic.Alive(1) {
			t.Error("node 1 dead after scheduled restore")
		}
	})
	e.Run()
}

func TestStatementWritePanicsOutOfRangeMessage(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(256)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		err := m.WriteStream(p, 200, make([]byte, 100), 0)
		var oor ErrOutOfRange
		if !errors.As(err, &oor) {
			t.Fatalf("got %v, want ErrOutOfRange", err)
		}
		want := "sci: access [200, 300) outside segment of 256 bytes"
		if err.Error() != want {
			t.Errorf("error message %q, want %q", err.Error(), want)
		}
	})
	e.Run()
}

func TestRevokedSegmentSurfacesSegmentLost(t *testing.T) {
	plan := fault.New(1).RevokeSegment(1, 0, time.Millisecond)
	e, ic := faultyCluster(2, plan)
	seg := ic.Node(1).Export(4096)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		if err := m.WriteStream(p, 0, make([]byte, 64), 0); err != nil {
			t.Fatalf("write before revocation failed: %v", err)
		}
		p.Sleep(2 * time.Millisecond)
		if !m.seg.revoked {
			t.Error("mapping still valid after scheduled revocation")
		}
		var lost ErrSegmentLost
		if err := m.WriteStream(p, 0, make([]byte, 64), 0); !errors.As(err, &lost) {
			t.Fatalf("err = %v, want ErrSegmentLost", err)
		}
		if lost.Owner != 1 || lost.Seg != 0 {
			t.Errorf("lost = %+v", lost)
		}
		if err := m.Sync(p); !errors.As(err, &lost) {
			t.Errorf("Sync err = %v, want ErrSegmentLost", err)
		}
		if _, err := ic.Node(0).Import(1, 0); err == nil {
			t.Error("import of revoked segment succeeded")
		}
	})
	e.Run()
}

func TestImportDeniedByPlan(t *testing.T) {
	plan := fault.New(1).FailImports(1, 0, 1)
	e, ic := faultyCluster(2, plan)
	seg := ic.Node(1).Export(4096)
	e.Go("importer", func(p *sim.Proc) {
		_, err := ic.Node(0).Import(1, seg.ID())
		var fe *fault.Error
		if !errors.As(err, &fe) || fe.Kind != fault.ImportDenied {
			t.Fatalf("first import err = %v, want ImportDenied", err)
		}
		if _, err := ic.Node(0).Import(1, seg.ID()); err != nil {
			t.Errorf("second import failed: %v", err)
		}
	})
	e.Run()
}

// TestInjectedWriteErrorsRetriedTransparently: an injected CRC/sequence
// error comes back as a retryable *fault.Error and leaves the target
// untouched; retrying the write, as mpi and osc do, lands the bytes.
func TestInjectedWriteErrorsRetriedTransparently(t *testing.T) {
	plan := fault.New(11).WithWriteErrors(0.4)
	e, ic := faultyCluster(2, plan)
	seg := ic.Node(1).Export(1 << 20)
	src := fill(256 << 10)
	failed := 0
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		for {
			err := m.WriteStream(p, 0, src, 0)
			if err == nil {
				break
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || !fe.Retryable() {
				t.Fatalf("write under injected errors: got %v, want a retryable *fault.Error", err)
			}
			if failed++; failed > 100 {
				t.Fatal("write never succeeded at a 40% injection rate")
			}
			ic.Node(0).StoreBarrier(p)
			if !bytes.Equal(seg.Local()[:len(src)], make([]byte, len(src))) {
				t.Fatal("a failed write deposited bytes")
			}
		}
		ic.Node(0).StoreBarrier(p)
		if !bytes.Equal(seg.Local()[:len(src)], src) {
			t.Error("data corrupted under injected write errors")
		}
	})
	e.Run()
	if failed == 0 {
		t.Error("no write failed at a 40% injection rate")
	}
	if got := ic.Node(0).Snapshot().TransferErrors; got != int64(failed) {
		t.Errorf("TransferErrors = %d, want one per failed write (%d)", got, failed)
	}
	if plan.Injected.Writes != int64(failed) {
		t.Errorf("plan recorded %d injected write errors, want %d", plan.Injected.Writes, failed)
	}
}

func TestCheckedSyncRetriesWithBackoff(t *testing.T) {
	run := func() (time.Duration, int64) {
		plan := fault.New(5).WithCheckErrors(0.25)
		e, ic := faultyCluster(2, plan)
		seg := ic.Node(1).Export(64 << 10)
		var at time.Duration
		e.Go("writer", func(p *sim.Proc) {
			m := ic.Node(0).MustImport(1, seg.ID())
			for i := 0; i < 20; i++ {
				must(m.WriteStream(p, 0, make([]byte, 4096), 0))
				if err := m.Sync(p); err != nil {
					t.Fatalf("Sync failed despite retry budget: %v", err)
				}
			}
			at = p.Now()
		})
		e.Run()
		return at, ic.Node(0).Snapshot().CheckRetries
	}
	at1, retries1 := run()
	at2, retries2 := run()
	if retries1 == 0 {
		t.Error("no check retries recorded at a 50% check-failure rate")
	}
	if at1 != at2 || retries1 != retries2 {
		t.Errorf("same-seed runs diverge: %v/%d vs %v/%d", at1, retries1, at2, retries2)
	}
}

func TestCheckedSyncGivesUpOnDeadOwner(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(4096)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		ic.FailNode(1)
		var lost ErrConnectionLost
		if err := m.Sync(p); !errors.As(err, &lost) {
			t.Fatalf("Sync err = %v, want ErrConnectionLost", err)
		}
		if lost.From != 0 || lost.To != 1 {
			t.Errorf("lost = %+v", lost)
		}
	})
	e.Run()
}

func TestLinkDisturbanceWindowRetriesThenClears(t *testing.T) {
	// A short window: the transfer's bounded retries ride it out.
	plan := fault.New(1).DisturbLink(0, 1, 0, 40*time.Microsecond)
	e, ic := faultyCluster(2, plan)
	seg := ic.Node(1).Export(4096)
	src := fill(512)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		must(m.WriteStream(p, 0, src, 0))
		ic.Node(0).StoreBarrier(p)
		if !bytes.Equal(seg.Local()[:len(src)], src) {
			t.Error("data corrupted across disturbance window")
		}
	})
	e.Run()
	if ic.Node(0).Snapshot().Retries == 0 {
		t.Error("disturbance window recorded no retries")
	}
}

func TestLinkDisturbancePersistentFailsTyped(t *testing.T) {
	// A window far longer than the retry budget: the typed error surfaces.
	plan := fault.New(1).DisturbLink(fault.Any, 1, 0, time.Second)
	e, ic := faultyCluster(2, plan)
	seg := ic.Node(1).Export(4096)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		err := m.WriteStream(p, 0, make([]byte, 512), 0)
		var fe *fault.Error
		if !errors.As(err, &fe) || fe.Kind != fault.LinkDisturbed {
			t.Fatalf("err = %v, want LinkDisturbed", err)
		}
	})
	e.Run()
}
