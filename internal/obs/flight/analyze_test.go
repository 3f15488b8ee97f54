package flight

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// Synthetic-dump analyzer tests: each builds a small recorder by hand and
// checks that Analyze reconstructs the causality and blames the right
// actor. The end-to-end versions (real cluster, injected faults) live in
// internal/osc and internal/rmem.

const us = time.Microsecond

func topo(rec *Recorder, ranks ...int64) {
	tp := rec.Actor("topology")
	for r, node := range ranks {
		tp.Record(0, KRankNode, int64(r), node, 0, 0)
	}
}

func TestAnalyzeFenceStallBlamesInjectedCrash(t *testing.T) {
	rec := New(32)
	topo(rec, 0, 1, 2) // ranki runs on nodei
	rec.Actor("node1").Record(100*us, KNodeDown, 1, 0, 0, 0)
	r0, r1, r2 := rec.Actor("rank0"), rec.Actor("rank1"), rec.Actor("rank2")
	for _, rg := range []*Ring{r0, r1, r2} {
		rg.Record(10*us, KFenceEnter, 0, 1, 0, 0)
		rg.Record(20*us, KFenceExit, 0, 1, 2, 0)
	}
	// Round 2: rank1's node is down, it never enters; the survivors stall.
	r0.Record(110*us, KFenceEnter, 0, 2, 0, 0)
	r2.Record(110*us, KFenceEnter, 0, 2, 0, 0)
	r0.Fail(200*us, OpFence, -1, errors.New("fence timed out"))

	d := rec.Snapshot("test")
	rep := Analyze(d)
	if len(rep.Anomalies) == 0 {
		t.Fatal("no anomalies on a stalled fence")
	}
	top := rep.Anomalies[0]
	if top.Check != "fence-stall" || top.Severity != 100 || top.Actor != "rank1" {
		t.Fatalf("top anomaly = %+v, want fence-stall sev 100 blaming rank1", top)
	}
	if !strings.Contains(top.Summary, "injected crash of node1") ||
		!strings.Contains(top.Summary, "root cause") {
		t.Errorf("summary %q does not name the injected crash as root cause", top.Summary)
	}
	// rank2 entered the round and its node is up: it must not be blamed.
	for _, an := range rep.Anomalies {
		if an.Check == "fence-stall" && an.Actor == "rank2" {
			t.Errorf("healthy participant rank2 blamed: %+v", an)
		}
	}
	if len(rep.Chain) < 2 || rep.Chain[len(rep.Chain)-1].Actor != "rank0" {
		t.Errorf("chain = %+v, want a path ending at rank0's failure", rep.Chain)
	}
	var buf bytes.Buffer
	WriteReport(&buf, d, rep)
	if !strings.Contains(buf.String(), "root cause") {
		t.Errorf("rendered report lacks the root-cause line:\n%s", buf.String())
	}
}

func TestAnalyzeFenceStallNoCrashLowerSeverity(t *testing.T) {
	rec := New(32)
	topo(rec, 0, 1)
	r0, r1 := rec.Actor("rank0"), rec.Actor("rank1")
	r0.Record(10*us, KFenceEnter, 0, 1, 0, 0)
	r1.Record(10*us, KFenceEnter, 0, 1, 0, 0)
	r0.Record(20*us, KFenceExit, 0, 1, 1, 0)
	r1.Record(20*us, KFenceExit, 0, 1, 1, 0)
	r0.Record(30*us, KFenceEnter, 0, 2, 0, 0)
	r0.Fail(90*us, OpFence, -1, errors.New("fence timed out"))
	rep := Analyze(rec.Snapshot("test"))
	top := rep.Anomalies[0]
	if top.Check != "fence-stall" || top.Severity != 85 || top.Actor != "rank1" {
		t.Fatalf("top anomaly = %+v, want sev-85 fence-stall on rank1 (absent, no crash)", top)
	}
	if strings.Contains(top.Summary, "root cause") {
		t.Errorf("no fault was injected, yet summary claims a root cause: %q", top.Summary)
	}
}

func TestAnalyzeAgreementDivergence(t *testing.T) {
	rec := New(16)
	rec.Actor("rank0").Record(10*us, KShrinkAdopt, 7, 1, 111, 0)
	rec.Actor("rank1").Record(11*us, KShrinkAdopt, 7, 1, 222, 0)
	rep := Analyze(rec.Snapshot("test"))
	if len(rep.Anomalies) != 1 {
		t.Fatalf("anomalies = %+v, want exactly the divergence", rep.Anomalies)
	}
	an := rep.Anomalies[0]
	if an.Check != "agreement-divergence" || an.Severity != 95 ||
		!strings.Contains(an.Summary, "diverged") {
		t.Errorf("anomaly = %+v, want sev-95 agreement-divergence", an)
	}
	if len(an.Evidence) != 2 {
		t.Errorf("evidence = %+v, want both adopts", an.Evidence)
	}
}

func TestAnalyzeAgreementStallBlamesCrash(t *testing.T) {
	rec := New(16)
	topo(rec, 0, 1)
	rec.Actor("node1").Record(50*us, KNodeDown, 1, 0, 0, 0)
	rec.Actor("rank0").Fail(100*us, OpShrink, -1, errors.New("agreement timed out"))
	rep := Analyze(rec.Snapshot("test"))
	top := rep.Anomalies[0]
	if top.Check != "agreement-stall" || top.Severity != 100 || top.Actor != "rank1" {
		t.Fatalf("top anomaly = %+v, want sev-100 agreement-stall blaming rank1", top)
	}
	if !strings.Contains(top.Summary, "injected crash of node1") {
		t.Errorf("summary %q does not name the injected crash", top.Summary)
	}
}

func TestAnalyzeEpochRegression(t *testing.T) {
	rec := New(16)
	rg := rec.Actor("rank0")
	rg.Record(30*us, KCommit, 4, 2, 0, 0)
	rg.Record(40*us, KCommit, 4, 2, 0, 0) // commit epoch not strictly increasing
	rep := Analyze(rec.Snapshot("test"))
	if len(rep.Anomalies) != 1 {
		t.Fatalf("anomalies = %+v, want the commit regression", rep.Anomalies)
	}
	if an := rep.Anomalies[0]; an.Check != "epoch-regression" || an.Severity != 80 || an.Actor != "rank0" {
		t.Errorf("anomaly = %+v, want sev-80 epoch-regression on rank0", an)
	}
}

// TestAnalyzeSplitFence: four ranks enter fence round 2, node1 crashes
// inside it, rank0 and rank2 complete the round and rank3 does not. The
// round is split, and rank3 is named; rank1 is not, its node is down. The
// same round still completing with no crash is not a finding.
func TestAnalyzeSplitFence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash bool
	}{
		{"crash", true},
		{"completing", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := New(32)
			topo(rec, 0, 1, 2, 3)
			var rs []*Ring
			for _, name := range []string{"rank0", "rank1", "rank2", "rank3"} {
				rg := rec.Actor(name)
				rg.Record(10*us, KFenceEnter, 0, 1, 0, 0)
				rg.Record(12*us, KFenceExit, 0, 1, 3, 0)
				rg.Record(20*us, KFenceEnter, 0, 2, 0, 0)
				rs = append(rs, rg)
			}
			if tc.crash {
				rec.Actor("node1").Record(21*us, KNodeDown, 1, 0, 0, 0)
			}
			rs[0].Record(25*us, KFenceExit, 0, 2, 3, 0)
			rs[2].Record(25*us, KFenceExit, 0, 2, 3, 0)
			rep := Analyze(rec.Snapshot("test"))
			var found []Anomaly
			for _, an := range rep.Anomalies {
				if an.Check == "split-fence" {
					found = append(found, an)
				}
			}
			if !tc.crash {
				if len(found) != 0 {
					t.Fatalf("reported %+v", found)
				}
				return
			}
			if len(found) != 1 || found[0].Severity != 93 {
				t.Fatalf("anomalies = %+v, want one sev-93 split-fence", rep.Anomalies)
			}
			want := "fence round 2 on window 0 is split: completed on rank0,rank2, still open on rank3 after node1 crashed at 21µs"
			if found[0].Summary != want {
				t.Errorf("summary %q, want %q", found[0].Summary, want)
			}
			// The two exits, rank3's enter and the crash.
			if len(found[0].Evidence) != 4 {
				t.Errorf("evidence = %+v, want two exits, an enter and node-down", found[0].Evidence)
			}
		})
	}
}

func TestAnalyzeLostWriteTiesEvidenceToStage(t *testing.T) {
	rec := New(16)
	rg := rec.Actor("rank0")
	rg.Record(10*us, KPutStage, 9, 4, 1, 0)
	rg.Record(50*us, KWriteLost, 9, 4, 0, 0)
	rep := Analyze(rec.Snapshot("test"))
	top := rep.Anomalies[0]
	if top.Check != "lost-write" || top.Severity != 92 ||
		!strings.Contains(top.Summary, "durability violated") {
		t.Fatalf("top anomaly = %+v, want sev-92 lost-write", top)
	}
	if len(top.Evidence) != 2 || top.Evidence[1].Index != 0 {
		t.Errorf("evidence = %+v, want the lost-write plus its staging event", top.Evidence)
	}
}

func TestAnalyzeStalledRendezvous(t *testing.T) {
	rec := New(16)
	topo(rec, 0, 1)
	rec.Actor("node1").Record(30*us, KNodeDown, 1, 0, 0, 0)
	rec.Actor("rank0").Record(10*us, KRdvStart, 1, 0x42, 1000, 0)
	rec.Actor("rank1").Record(20*us, KRdvChunk, 0, 0x42, 256, 256)
	rep := Analyze(rec.Snapshot("test"))
	top := rep.Anomalies[0]
	if top.Check != "stalled-rendezvous" || top.Severity != 90 || top.Actor != "rank0" {
		t.Fatalf("top anomaly = %+v, want sev-90 stalled-rendezvous", top)
	}
	if !strings.Contains(top.Summary, "256 of 1000 bytes") ||
		!strings.Contains(top.Summary, "crashed") {
		t.Errorf("summary %q lacks progress or crash attribution", top.Summary)
	}
}

func TestAnalyzeClocksAndChainAcrossSendRecv(t *testing.T) {
	rec := New(16)
	rec.Actor("rank0").Record(10*us, KSendPost, 1, 5, 64, 1)
	r1 := rec.Actor("rank1")
	r1.Record(20*us, KRecvMatch, 0, 5, 64, 2)
	r1.Fail(30*us, OpRecv, 0, errors.New("payload corrupt"))
	rep := Analyze(rec.Snapshot("test"))
	want := []int64{2, 3}
	for i, c := range rep.Clocks["rank1"] {
		if c != want[i] {
			t.Errorf("rank1 clock[%d] = %d, want %d (recv inherits the send's clock)", i, c, want[i])
		}
	}
	if len(rep.Chain) != 3 {
		t.Fatalf("chain = %+v, want send -> recv-match -> error", rep.Chain)
	}
	if rep.Chain[0].Actor != "rank0" || rep.Chain[1].Actor != "rank1" || rep.Chain[2].Actor != "rank1" {
		t.Errorf("chain actors = %+v, want [rank0 rank1 rank1]", rep.Chain)
	}
}

func TestAnalyzeUnmatchedSends(t *testing.T) {
	rec := New(16)
	r0, r1 := rec.Actor("rank0"), rec.Actor("rank1")
	for i := 0; i < 3; i++ {
		r0.Record(time.Duration(10+i)*us, KSendPost, 1, 2, 64, 1)
	}
	r1.Record(12*us, KRecvMatch, 0, 2, 64, 2)
	rep := Analyze(rec.Snapshot("test"))
	top := rep.Anomalies[0]
	if top.Check != "unmatched-send" || top.Severity != 30 || top.Actor != "rank1" {
		t.Fatalf("top anomaly = %+v, want sev-30 unmatched-send at rank1", top)
	}
	if !strings.Contains(top.Summary, "2 send(s)") {
		t.Errorf("summary %q, want 2 unmatched sends counted", top.Summary)
	}
}

func TestAnalyzeEmptyDump(t *testing.T) {
	rep := Analyze(New(4).Snapshot("empty"))
	if len(rep.Anomalies) != 0 || len(rep.Chain) != 0 {
		t.Errorf("empty dump produced %+v", rep)
	}
}

func TestAnalyzeEvictionDoesNotShiftPairing(t *testing.T) {
	// rank0's window lost its oldest sends to eviction; pairing must only
	// consider the interval where both windows are complete, or the i-th
	// send would be matched with the (i+k)-th receive and every pair would
	// look anomalous.
	rec := New(4)
	r0, r1 := rec.Actor("rank0"), rec.Actor("rank1")
	for i := 0; i < 8; i++ {
		r0.Record(time.Duration(10+2*i)*us, KSendPost, 1, 2, 64, 1)
		r1.Record(time.Duration(11+2*i)*us, KRecvMatch, 0, 2, 64, 2)
	}
	rep := Analyze(rec.Snapshot("test"))
	for _, an := range rep.Anomalies {
		if an.Check == "unmatched-send" {
			t.Errorf("eviction produced a phantom unmatched send: %+v", an)
		}
	}
}
