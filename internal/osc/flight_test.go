package osc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
)

// TestFenceStallDumpNamesInjectedCrash is the end-to-end dump-on-failure
// acceptance test: a seeded fault plan crashes node1 mid-run, a survivor's
// Fence fails, the recorder dumps at that first typed error, and the
// post-mortem analyzer names the injected crash of node1 — not the rank
// that happened to surface the failure — as the root cause. The survivors
// enter their next fence after the crash, so each fails at once with
// sci.ErrConnectionLost instead of sitting out its watchdog.
func TestFenceStallDumpNamesInjectedCrash(t *testing.T) {
	const crashAt = 2 * time.Millisecond
	const syncTimeout = 500 * time.Microsecond
	cfg := mpi.DefaultConfig(4, 1)
	cfg.SCI.Fault = fault.New(42).CrashNode(1, crashAt)
	cfg.Protocol.CollTimeout = syncTimeout
	rec := flight.New(256)
	cfg.Flight = rec
	var dump *flight.Dump
	rec.SetDumpSink(func(d *flight.Dump) { dump = d })

	src := fill(512)
	failed := 0
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if err := w.Fence(); err != nil { // open the first epoch
			t.Errorf("rank%d: opening fence failed: %v", c.Rank(), err)
			return
		}
		for round := 0; ; round++ {
			// The simulated process dies with its node: once the plan has
			// struck, rank1 stops participating in the epochs.
			if c.Rank() == 1 && c.Proc().Now() > crashAt {
				return
			}
			if round < 2 && c.Rank() == 0 {
				if err := w.Put(src, len(src), datatype.Byte, 2, 0); err != nil {
					t.Errorf("healthy-phase put failed: %v", err)
				}
			}
			entered := c.Proc().Now()
			if err := w.Fence(); err != nil {
				var lost sci.ErrConnectionLost
				if !errors.As(err, &lost) || lost.To != 1 {
					t.Errorf("rank%d: fence error = %v, want sci.ErrConnectionLost toward node1", c.Rank(), err)
				}
				if took := c.Proc().Now() - entered; took > syncTimeout/10 {
					t.Errorf("rank%d: the fence failed after %v, want well under the %v watchdog", c.Rank(), took, syncTimeout)
				}
				if n := expiries(c); n != 0 {
					t.Errorf("rank%d: %d expired waits, want 0 for a fast fail", c.Rank(), n)
				}
				failed++
				return
			}
			c.Proc().Sleep(300 * time.Microsecond)
		}
	})

	if failed != 3 {
		t.Fatalf("%d survivors saw their fence fail, want 3", failed)
	}
	checkFenceDump(t, rec, dump)
}

// TestFenceWaitingAtCrashTimesOut is the dump test's twin for the crash the
// fast fail cannot see: node1 crashes while the survivors already wait in a
// fence round rank1 never enters. Nothing wakes a waiting fence, so each
// survivor still sits out its watchdog, where it fails as every mpi wait
// does, with the typed loss of node1, and the analyzer still names the
// injected crash of node1 as the root cause.
func TestFenceWaitingAtCrashTimesOut(t *testing.T) {
	const enterAt = time.Millisecond
	const crashAt = enterAt + 200*time.Microsecond
	const syncTimeout = 500 * time.Microsecond
	cfg := mpi.DefaultConfig(4, 1)
	cfg.SCI.Fault = fault.New(42).CrashNode(1, crashAt)
	cfg.Protocol.CollTimeout = syncTimeout
	rec := flight.New(256)
	cfg.Flight = rec
	var dump *flight.Dump
	rec.SetDumpSink(func(d *flight.Dump) { dump = d })

	timeouts := 0
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if err := w.Fence(); err != nil { // open the first epoch
			t.Errorf("rank%d: opening fence failed: %v", c.Rank(), err)
			return
		}
		if c.Rank() == 1 {
			return // never enters the second round
		}
		c.Proc().Sleep(enterAt - c.Proc().Now())
		err := w.Fence()
		var lost sci.ErrConnectionLost
		if !errors.As(err, &lost) || lost.To != 1 {
			t.Errorf("rank%d: fence error = %v, want sci.ErrConnectionLost toward node1", c.Rank(), err)
			return
		}
		if c.Proc().Now() < crashAt+syncTimeout/2 {
			t.Errorf("rank%d: the fence failed at %v, before its watchdog could expire", c.Rank(), c.Proc().Now())
		}
		timeouts++
	})

	if timeouts != 3 {
		t.Fatalf("%d survivors hit the fence timeout, want 3", timeouts)
	}
	checkFenceDump(t, rec, dump)
}

// checkFenceDump holds the dump of a failed fence: it was taken at the
// first failure, and the analyzer blames the crash of node1 through rank1.
func checkFenceDump(t *testing.T, rec *flight.Recorder, dump *flight.Dump) {
	t.Helper()
	if !rec.Dumped() || dump == nil {
		t.Fatal("first typed error did not trigger the failure dump")
	}
	if !strings.Contains(rec.Reason(), "fence failed") {
		t.Errorf("dump reason = %q, want the failing fence op", rec.Reason())
	}

	rep := flight.Analyze(dump)
	if len(rep.Anomalies) == 0 {
		t.Fatal("analyzer found no anomalies in the failure dump")
	}
	top := rep.Anomalies[0]
	if top.Check != "fence-stall" || top.Severity != 100 {
		t.Fatalf("top anomaly = %+v, want sev-100 fence-stall", top)
	}
	if top.Actor != "rank1" {
		t.Errorf("blamed actor = %q, want rank1 (the crashed node's rank)", top.Actor)
	}
	if !strings.Contains(top.Summary, "injected crash of node1") ||
		!strings.Contains(top.Summary, "root cause") {
		t.Errorf("summary %q does not name the injected node1 crash as root cause", top.Summary)
	}
	if len(rep.Chain) == 0 {
		t.Error("no causal chain to the failure")
	}
	var buf bytes.Buffer
	flight.WriteReport(&buf, dump, rep)
	if !strings.Contains(buf.String(), "root cause") {
		t.Errorf("rendered report lacks the root-cause line:\n%s", buf.String())
	}
	// The meta rings the attribution depends on made it into the dump.
	if dump.Actor("topology") == nil {
		t.Error("dump lacks the topology ring")
	}
	if nd := dump.Actor("node1"); nd == nil || len(nd.Events) == 0 {
		t.Error("dump lacks node1's crash event")
	}
}

// TestFlightRecordsPutPath checks the osc wiring: puts and fences of a
// healthy run land in the origin rank's ring with the documented payloads.
func TestFlightRecordsPutPath(t *testing.T) {
	cfg := mpi.DefaultConfig(2, 1)
	rec := flight.New(64)
	cfg.Flight = rec
	src := fill(1024)
	mpi.Run(cfg, func(c *mpi.Comm) {
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), DefaultConfig())
		if err := w.Fence(); err != nil {
			t.Errorf("fence: %v", err)
		}
		if c.Rank() == 0 {
			if err := w.Put(src, len(src), datatype.Byte, 1, 0); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		if err := w.Fence(); err != nil {
			t.Errorf("fence: %v", err)
		}
	})
	var put *flight.Event
	enters, exits := 0, 0
	for _, e := range rec.Actor("rank0").Events() {
		switch e.Kind {
		case flight.KPut:
			cp := e
			put = &cp
		case flight.KFenceEnter:
			enters++
		case flight.KFenceExit:
			exits++
		}
	}
	if put == nil {
		t.Fatal("no KPut recorded on the origin rank")
	}
	if put.A != 1 || put.B != 1024 || put.D != 1 {
		t.Errorf("KPut payload = %+v, want target 1, 1024B, direct", put)
	}
	if enters != 2 || exits != 2 {
		t.Errorf("fence events = %d enters / %d exits, want 2 / 2", enters, exits)
	}
	if rec.Dumped() {
		t.Errorf("healthy run dumped: %s", rec.Reason())
	}
}
