package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestEngineBenchSmall runs the engine suite on a 4x4x4 machine — big
// enough to exercise the sequential row plus two sharded configurations,
// small enough for the test suite. The torus determinism gates must hold at
// any scale, and the full-stack MPI row runs on the sequential engine.
func TestEngineBenchSmall(t *testing.T) {
	rows, ok := RunEngineBenchAt(4, 4, 4, []int{2, 4})
	if !ok {
		t.Fatalf("engine gates failed: %+v", rows)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (3 torus + 1 mpi-stack)", len(rows))
	}
	if rows[0].Workload != "torus-allreduce" || rows[0].Engine != "sequential" {
		t.Fatalf("torus baseline row = %+v", rows[0])
	}
	for _, r := range rows[1:3] {
		if r.Workload != "torus-allreduce" || r.Engine != "sharded" || !r.GateDeterministic {
			t.Fatalf("sharded torus row not deterministic: %+v", r)
		}
		if r.VirtualNS != rows[0].VirtualNS || r.DumpFNV != rows[0].DumpFNV {
			t.Fatalf("row diverged from oracle: %+v vs %+v", r, rows[0])
		}
		if r.Windows == 0 {
			t.Fatalf("sharded row ran no windows: %+v", r)
		}
	}
	if r := rows[3]; r.Workload != "mpi-allreduce" || r.Engine != "sequential" || r.Events == 0 || r.VirtualNS <= 0 {
		t.Fatalf("mpi-stack row = %+v", r)
	}
	out := FormatEngine(rows)
	if !strings.Contains(out, "sequential") || !strings.Contains(out, "det=true") ||
		!strings.Contains(out, "mpi-allreduce") {
		t.Fatalf("FormatEngine output missing expected fields:\n%s", out)
	}
}

func TestEngineJSONRoundTrip(t *testing.T) {
	rows, _ := RunEngineBenchAt(2, 2, 2, []int{2})
	data, err := marshalArtifact("BENCH_engine.json", rows)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Suite   string
		Results []EngineResult
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].WallNS = 0 // printed, never written
	}
	if back.Suite != "engine" || !reflect.DeepEqual(back.Results, rows) {
		t.Fatalf("round trip lost rows: %+v\nwant %+v", back, rows)
	}
}
