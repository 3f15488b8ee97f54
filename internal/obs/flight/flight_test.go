package flight

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scimpich/internal/fault"
)

func TestRingWindowWrap(t *testing.T) {
	rec := New(4)
	rg := rec.Actor("rank0")
	for i := 0; i < 6; i++ {
		rg.Record(time.Duration(i)*time.Microsecond, KSendPost, int64(i), 0, 0, 0)
	}
	evs, dropped := rg.Window()
	if len(evs) != 4 || dropped != 2 {
		t.Fatalf("Window: %d events, %d dropped, want 4 and 2", len(evs), dropped)
	}
	for i, e := range evs {
		if e.A != int64(i+2) {
			t.Errorf("event %d: A = %d, want %d (oldest-first after eviction)", i, e.A, i+2)
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("event %d: seq %d not increasing", i, e.Seq)
		}
	}
}

func TestGlobalSeqTotalOrder(t *testing.T) {
	rec := New(8)
	a, b := rec.Actor("rank0"), rec.Actor("rank1")
	a.Record(0, KSendPost, 0, 0, 0, 0)
	b.Record(0, KRecvMatch, 0, 0, 0, 0)
	a.Record(0, KSendPost, 1, 0, 0, 0)
	if s1, s2, s3 := a.Events()[0].Seq, b.Events()[0].Seq, a.Events()[1].Seq; !(s1 < s2 && s2 < s3) {
		t.Errorf("global seq not a total order across rings: %d %d %d", s1, s2, s3)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	rg := rec.Actor("rank0")
	if rg != nil {
		t.Fatalf("nil recorder handed out a non-nil ring")
	}
	rg.Record(0, KSendPost, 0, 0, 0, 0)
	rg.Fail(0, OpSend, 1, errors.New("boom"))
	if evs, dropped := rg.Window(); evs != nil || dropped != 0 {
		t.Errorf("nil ring Window = %v, %d", evs, dropped)
	}
	if rg.Events() != nil {
		t.Errorf("nil ring Events = %v", rg.Events())
	}
	rec.SetDumpPath("/nonexistent")
	rec.SetDumpSink(func(*Dump) {})
	if rec.Dumped() || rec.DumpErr() != nil || rec.Reason() != "" {
		t.Errorf("nil recorder state accessors not inert")
	}
	if rec.Snapshot("x") != nil || rec.ForceDump("x") != nil {
		t.Errorf("nil recorder snapshots not nil")
	}
}

func TestFirstFailureWinsAndDumpFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.json")
	rec := New(16)
	rec.SetDumpPath(path)
	sinks := 0
	rec.SetDumpSink(func(*Dump) { sinks++ })
	rg := rec.Actor("rank0")
	rg.Record(10*time.Microsecond, KFenceEnter, 0, 1, 0, 0)
	rg.Fail(20*time.Microsecond, OpFence, -1, errors.New("fence timed out"))
	rec.Actor("rank1").Fail(30*time.Microsecond, OpRecv, 0, errors.New("later failure"))
	if sinks != 1 {
		t.Fatalf("sink fired %d times, want 1 (first failure wins)", sinks)
	}
	if !rec.Dumped() {
		t.Fatal("Dumped() false after Fail")
	}
	if !strings.Contains(rec.Reason(), "rank0") || !strings.Contains(rec.Reason(), "fence") {
		t.Errorf("Reason() = %q, want the first failure's actor and op", rec.Reason())
	}
	if err := rec.DumpErr(); err != nil {
		t.Fatalf("dump file write failed: %v", err)
	}
	d, err := ReadDumpFile(path)
	if err != nil {
		t.Fatalf("ReadDumpFile: %v", err)
	}
	// The snapshot was taken at the first failure: rank1's later KError is
	// absent, rank0's KFenceEnter and KError are present.
	if ad := d.Actor("rank1"); ad != nil {
		for _, e := range ad.Events {
			if e.KindOf() == KError {
				t.Errorf("dump contains the post-dump failure of rank1")
			}
		}
	}
	r0 := d.Actor("rank0")
	if r0 == nil || len(r0.Events) != 2 || r0.Events[1].KindOf() != KError {
		t.Fatalf("rank0 window = %+v, want fence-enter then error", r0)
	}
	if Op(r0.Events[1].A) != OpFence || r0.Events[1].B != -1 {
		t.Errorf("KError payload = %+v, want op=fence peer=-1", r0.Events[1])
	}
}

func TestDumpRoundTrip(t *testing.T) {
	rec := New(8)
	rec.Actor("rank1").Record(5*time.Microsecond, KPut, 2, 128, 0, 1)
	rec.Actor("rank0").Record(3*time.Microsecond, KSendPost, 1, 7, 64, 2)
	d := rec.Snapshot("roundtrip")
	if len(d.Actors) != 2 || d.Actors[0].Actor != "rank0" || d.Actors[1].Actor != "rank1" {
		t.Fatalf("actors not sorted: %+v", d.Actors)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if got.Reason != "roundtrip" || got.Cap != 8 || got.TotalEvents() != 2 {
		t.Errorf("roundtrip lost header: %+v", got)
	}
	e := got.Actor("rank0").Events[0]
	if e.KindOf() != KSendPost || time.Duration(e.At) != 3*time.Microsecond || e.A != 1 || e.B != 7 || e.C != 64 || e.D != 2 {
		t.Errorf("roundtrip lost event payload: %+v", e)
	}
	// A second encoding of the same snapshot is byte-identical.
	var buf2 bytes.Buffer
	if err := d.WriteJSON(&buf2); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("snapshot encoding not deterministic")
	}
}

func TestForceDumpMarksDumped(t *testing.T) {
	rec := New(8)
	rec.Actor("rank0").Record(0, KCommit, 1, 3, 0, 0)
	sinks := 0
	rec.SetDumpSink(func(*Dump) { sinks++ })
	d := rec.ForceDump("end of run")
	if d == nil || d.Reason != "end of run" || sinks != 1 {
		t.Fatalf("ForceDump: d=%v sinks=%d", d, sinks)
	}
	rec.Actor("rank0").Fail(time.Microsecond, OpCommit, -1, errors.New("late"))
	if sinks != 1 || rec.Reason() != "end of run" {
		t.Errorf("Fail after ForceDump overwrote the dump")
	}
}

func TestKindAndOpNames(t *testing.T) {
	for k := KNone; k < kindCount; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if KindFromName(name) != k {
			t.Errorf("KindFromName(%q) = %v, want %v", name, KindFromName(name), k)
		}
	}
	if KindFromName("no-such-kind") != KNone {
		t.Errorf("unknown kind name did not map to KNone")
	}
	if OpFence.String() != "fence" || OpRecover.String() != "recover" {
		t.Errorf("op names wrong: %v %v", OpFence, OpRecover)
	}
}

// TestFormatEventNamesFaultsAndDrops: the rendering names every fault kind
// and every packet-drop reason, so the post-mortem and the Chrome instants
// read as well as the formatted trace lines they replaced.
func TestFormatEventNamesFaultsAndDrops(t *testing.T) {
	ev := func(k Kind, a, b, c, d int64) DumpEvent {
		return DumpEvent{Kind: k.String(), A: a, B: b, C: c, D: d}
	}
	for _, tc := range []struct {
		e    DumpEvent
		want string
	}{
		{ev(KFault, int64(fault.CRC), 0, 1, 0), "fault: crc from 0 to 1"},
		{ev(KFault, int64(fault.Sequence), 2, 3, 2), "fault: sequence from 2 to 3 (retry 2)"},
		{ev(KFault, int64(fault.LinkDisturbed), 0, 1, 3), "fault: link-disturbed from 0 to 1 (retry 3)"},
		{ev(KFault, int64(fault.NodeUnreachable), 1, 0, 0), "fault: node-unreachable from 1 to 0"},
		{ev(KFault, int64(fault.ImportDenied), 1, 4, 0), "fault: import of segment 4@node1 denied"},
		{ev(KPacketDrop, 0, 1, DropRevoked, 0), "packet to/from rank1 dropped (peer revoked)"},
		{ev(KPacketDrop, 0, 1, DropNodeDown, 0), "packet to/from rank1 dropped (node down)"},
		{ev(KPacketDrop, 0, 1, DropDuplicate, 7), "packet to/from rank1 dropped (duplicate)"},
		{ev(KPacketDrop, 4, 1, DropStray, 9), "packet to/from rank1 dropped (stray)"},
		{ev(KPacketDrop, 1, 0, DropDrainFailed, 0), "packet to/from rank0 dropped (drain failed)"},
		{ev(KPacketDrop, 3, 2, DropUnknownWin, 0), "window 3: request of rank2 dropped (unknown window)"},
		{ev(KPacketDrop, 3, 2, DropUnheldUnlock, 0), "window 3: request of rank2 dropped (unlock of unheld lock)"},
		{ev(KPacketDrop, 3, 2, 8, 0), "packet to/from rank2 dropped (reason 8)"},
		{ev(KPacketDrop, 0, 1, 99, 0), "packet to/from rank1 dropped (reason 99)"},
		{ev(KWinDegraded, 3, 1, 0, 0), "window 3: direct view of rank1 degraded to emulation"},
		{ev(KWinAbandoned, 3, 0, 0, 0), "window 3 abandoned"},
		{ev(KConnLost, 0, 1, 5, 0), "connection node0 -> node1 lost after 5 failed checks"},
	} {
		if got := FormatEvent(tc.e); got != tc.want {
			t.Errorf("FormatEvent(%+v) = %q, want %q", tc.e, got, tc.want)
		}
	}
}

func TestDigests(t *testing.T) {
	if DigestInts([]int{3, 1, 2}) != DigestInts([]int{2, 3, 1}) {
		t.Errorf("DigestInts not order-insensitive")
	}
	if DigestInts([]int{1}) == DigestInts([]int{2}) {
		t.Errorf("DigestInts collides on distinct singletons")
	}
	if DigestInts(nil) < 0 || DigestString("mpi.shrink.0.1") < 0 {
		t.Errorf("digests must be non-negative (they ride in int64 payload words)")
	}
	if DigestString("a") == DigestString("b") {
		t.Errorf("DigestString collides on distinct keys")
	}
}

// TestAllocsFlightRecord pins the recording hot path at zero allocations:
// the recorder sits next to the 0-alloc pack/PIO paths, so a single
// allocation per event would show up in every pinned benchmark.
func TestAllocsFlightRecord(t *testing.T) {
	rec := New(64)
	rg := rec.Actor("rank0")
	if n := testing.AllocsPerRun(1000, func() {
		rg.Record(time.Microsecond, KSendPost, 1, 5, 64, 2)
	}); n != 0 {
		t.Errorf("Ring.Record allocates %v per op, want 0", n)
	}
	var nilRing *Ring
	if n := testing.AllocsPerRun(1000, func() {
		nilRing.Record(time.Microsecond, KSendPost, 1, 5, 64, 2)
	}); n != 0 {
		t.Errorf("nil Ring.Record allocates %v per op, want 0", n)
	}
}

// BenchmarkRingRecord is the recording hot path alone, on the default ring
// capacity: the cost every flight-on event pays. Run with
// go test -run '^$' -bench RingRecord ./internal/obs/flight/.
func BenchmarkRingRecord(b *testing.B) {
	rg := New(0).Actor("rank0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rg.Record(time.Duration(i), KSendPost, 1, 5, 64, 2)
	}
}

func writeFile(t *testing.T, d *Dump) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "d.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestReadDumpFileStdinDash(t *testing.T) {
	rec := New(4)
	rec.Actor("rank0").Record(0, KCommit, 1, 0, 0, 0)
	path := writeFile(t, rec.Snapshot("x"))
	d, err := ReadDumpFile(path)
	if err != nil || d.TotalEvents() != 1 {
		t.Fatalf("ReadDumpFile: %v, %d events", err, d.TotalEvents())
	}
}
