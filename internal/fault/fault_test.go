package fault

import (
	"testing"
	"time"
)

// drawSequence records the outcome of a fixed mixed draw workload.
func drawSequence(f *Plan, n int) []bool {
	out := make([]bool, 0, 4*n)
	for i := 0; i < n; i++ {
		out = append(out, f.DrawWriteError(time.Duration(i), 0, 1) != nil)
		out = append(out, f.DrawDMAError(time.Duration(i), 0, 1) != nil)
		out = append(out, f.DrawCheckError(time.Duration(i), 0, 1) != nil)
		out = append(out, f.DrawDuplicate())
	}
	return out
}

func mkPlan(seed uint64) *Plan {
	return New(seed).
		WithWriteErrors(0.2).WithDMAErrors(0.1).
		WithCheckErrors(0.15).WithDuplicates(0.05)
}

func TestDrawsDeterministicPerSeed(t *testing.T) {
	a := drawSequence(mkPlan(42), 500)
	b := drawSequence(mkPlan(42), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverges between same-seed plans", i)
		}
	}
	var hits int
	for _, v := range a {
		if v {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no faults drawn at substantial rates")
	}
	c := drawSequence(mkPlan(43), 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical draw sequences")
	}
}

func TestRatesClamped(t *testing.T) {
	f := New(1).WithWriteErrors(2.5)
	if f.writeRate > 0.95 {
		t.Errorf("rate %v not clamped to 0.95", f.writeRate)
	}
	if g := New(1).WithDuplicates(-3); g.dupRate != 0 {
		t.Errorf("negative rate %v not clamped to 0", g.dupRate)
	}
}

func TestNilPlanInjectsNothing(t *testing.T) {
	var f *Plan
	if f.DrawWriteError(0, 0, 1) != nil || f.DrawDMAError(0, 0, 1) != nil ||
		f.DrawCheckError(0, 0, 1) != nil || f.DrawDuplicate() {
		t.Error("nil plan drew a fault")
	}
	if f.Disturbed(0, 1, 0) || f.TakeImportFailure(0, 0, 0) {
		t.Error("nil plan reported scheduled faults")
	}
	if f.NodeSchedule() != nil || f.SegmentSchedule() != nil {
		t.Error("nil plan reported schedules")
	}
}

func TestDisturbanceWindows(t *testing.T) {
	f := New(1).
		DisturbLink(0, 1, time.Millisecond, 2*time.Millisecond).
		DisturbLink(Any, 3, 5*time.Millisecond, 6*time.Millisecond)
	if f.Disturbed(0, 1, 500*time.Microsecond) {
		t.Error("disturbed before window start")
	}
	if !f.Disturbed(0, 1, 1500*time.Microsecond) || !f.Disturbed(1, 0, 1500*time.Microsecond) {
		t.Error("window not symmetric inside [start, end)")
	}
	if f.Disturbed(0, 1, 2*time.Millisecond) {
		t.Error("disturbed at window end (should be exclusive)")
	}
	if f.Disturbed(0, 2, 1500*time.Microsecond) {
		t.Error("unrelated pair disturbed")
	}
	if !f.Disturbed(2, 3, 5500*time.Microsecond) || !f.Disturbed(3, 7, 5500*time.Microsecond) {
		t.Error("Any wildcard endpoint not matched")
	}
}

func TestImportFailuresConsumed(t *testing.T) {
	f := New(1).FailImports(1, 0, 2)
	if !f.TakeImportFailure(0, 1, 0) || !f.TakeImportFailure(0, 1, 0) {
		t.Fatal("scheduled import failures not taken")
	}
	if f.TakeImportFailure(0, 1, 0) {
		t.Error("import failure taken beyond scheduled count")
	}
	if f.Injected.Imports != 2 {
		t.Errorf("Injected.Imports = %d, want 2", f.Injected.Imports)
	}
}

func TestErrorRetryability(t *testing.T) {
	for kind, want := range map[Kind]bool{
		CRC: true, Sequence: true, LinkDisturbed: true,
		NodeUnreachable: false, SegmentRevoked: false,
		ImportDenied: false, Timeout: false,
	} {
		e := &Error{Kind: kind, From: 0, To: 1}
		if e.Retryable() != want {
			t.Errorf("%v retryable = %v, want %v", kind, e.Retryable(), want)
		}
	}
}
