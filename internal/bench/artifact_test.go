package bench

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestBenchArtifactsDeterministic pins the contract of the two artifacts
// that were not committed before: the rmem suite and the engine suite (at
// 4x4x4, the scale TestEngineBenchSmall uses) marshal to the same bytes on
// every run. The engine rows carry a wall time that differs run to run, so
// equal bytes also show that nothing wall-clock is written.
func TestBenchArtifactsDeterministic(t *testing.T) {
	marshal := func() (rmem, engine []byte) {
		t.Helper()
		rmemRows, ok := RunRmemBench()
		if !ok {
			t.Fatalf("rmem gates failed: %+v", rmemRows)
		}
		engineRows, ok := RunEngineBenchAt(4, 4, 4, []int{2, 4})
		if !ok {
			t.Fatalf("engine gates failed: %+v", engineRows)
		}
		rmem, err := marshalArtifact("BENCH_rmem.json", rmemRows)
		if err != nil {
			t.Fatal(err)
		}
		engine, err = marshalArtifact("BENCH_engine.json", engineRows)
		if err != nil {
			t.Fatal(err)
		}
		return rmem, engine
	}
	rmem1, engine1 := marshal()
	rmem2, engine2 := marshal()
	if !bytes.Equal(rmem1, rmem2) {
		t.Errorf("BENCH_rmem.json differs between two runs:\n%s\n%s", rmem1, rmem2)
	}
	if !bytes.Equal(engine1, engine2) {
		t.Errorf("BENCH_engine.json differs between two runs:\n%s\n%s", engine1, engine2)
	}
	for _, col := range []string{"wall_ns", "events_per_sec", "speedup", "ncpu"} {
		if bytes.Contains(engine1, []byte(col)) {
			t.Errorf("BENCH_engine.json carries the host-dependent column %q", col)
		}
	}
	if bytes.Contains(rmem1, []byte(runtime.Version())) || bytes.Contains(rmem1, []byte(`"go"`)) {
		t.Errorf("the artifact envelope carries the toolchain version:\n%.200s", rmem1)
	}
}

// TestRmemStallGateCanFail feeds the gate a churn row that lost nothing and
// failed nothing after recovery but stalled its clients past the watchdog:
// the verdict must be false, and true again at the bound.
func TestRmemStallGateCanFail(t *testing.T) {
	watchdog := rmemWatchdog()
	if watchdog <= 0 {
		t.Fatalf("scaled watchdog not resolved: %v", watchdog)
	}
	churn := RmemResult{Scenario: "churn", Failovers: 3, SojournP99NS: int64(watchdog) + 1}
	if gateRmem(&churn, watchdog) || churn.GateP99Bound {
		t.Fatalf("sojourn p99 %v over the %v watchdog passed the gate: %+v",
			time.Duration(churn.SojournP99NS), watchdog, churn)
	}
	if !churn.GateNoLostWrites || !churn.GatePostFailoverClean {
		t.Fatalf("the stall must be the only failing gate: %+v", churn)
	}
	churn.SojournP99NS = int64(watchdog)
	if !gateRmem(&churn, watchdog) {
		t.Fatalf("sojourn p99 at the bound failed the gate: %+v", churn)
	}
}
