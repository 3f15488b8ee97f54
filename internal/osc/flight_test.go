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
)

// TestFenceStallDumpNamesInjectedCrash is the end-to-end dump-on-failure
// acceptance test: a seeded fault plan crashes node1 mid-run, a survivor's
// Fence times out, the recorder dumps at that first typed error,
// and the post-mortem analyzer names the injected crash of node1 — not the
// rank that happened to surface the timeout — as the root cause.
func TestFenceStallDumpNamesInjectedCrash(t *testing.T) {
	const crashAt = 2 * time.Millisecond
	cfg := mpi.DefaultConfig(4, 1)
	cfg.SCI.Fault = fault.New(42).CrashNode(1, crashAt)
	rec := flight.New(256)
	cfg.Flight = rec
	var dump *flight.Dump
	rec.SetDumpSink(func(d *flight.Dump) { dump = d })

	src := fill(512)
	timeouts := 0
	mpi.Run(cfg, func(c *mpi.Comm) {
		oscCfg := DefaultConfig()
		oscCfg.SyncTimeout = 500 * time.Microsecond
		s := NewSystem(c)
		w := s.CreateShared(c.AllocShared(4096), oscCfg)
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
			if err := w.Fence(); err != nil {
				var st ErrSyncTimeout
				if !errors.As(err, &st) {
					t.Errorf("rank%d: fence error = %v, want ErrSyncTimeout", c.Rank(), err)
				}
				timeouts++
				return
			}
			c.Proc().Sleep(300 * time.Microsecond)
		}
	})

	if timeouts == 0 {
		t.Fatal("no survivor hit the fence timeout; the stall never happened")
	}
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
