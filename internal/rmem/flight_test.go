package rmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
)

// flightConfig is testConfig with a flight recorder attached, returning
// both. When FLIGHT_DUMP_DIR is set (CI does this on the failover jobs),
// the recorder also arms a dump file named after the test and seed, so a
// failing job leaves a post-mortem artifact behind.
func flightConfig(t *testing.T, seed uint64) (mpi.Config, *flight.Recorder) {
	t.Helper()
	cfg := testConfig(churnPlan(seed))
	rec := flight.New(512)
	cfg.Flight = rec
	if dir := os.Getenv("FLIGHT_DUMP_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("FLIGHT_DUMP_DIR: %v", err)
		}
		rec.SetDumpPath(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.Name(), seed)))
	}
	return cfg, rec
}

// TestFlightDumpDeterministic pins the dump encoding: two runs of the same
// seeded churn workload must produce byte-identical flight dumps — the
// recorder sees only virtual times and protocol values, and the dump
// encoding is canonical. This is what makes a CI flight-dump artifact
// reproducible locally from just the seed.
func TestFlightDumpDeterministic(t *testing.T) {
	run := func() []byte {
		cfg, rec := flightConfig(t, *faultSeed)
		var buf bytes.Buffer
		rec.SetDumpSink(func(d *flight.Dump) {
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
		})
		RunWorkload(cfg, DefaultConfig(), DefaultWorkload())
		if buf.Len() == 0 {
			// The churn plan produces typed errors; if none fired, the
			// crash was absorbed silently and the test premise is gone.
			t.Fatal("churn run produced no failure dump")
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed flight dumps differ (%d vs %d bytes)", len(a), len(b))
	}

	// The dump is analyzable: the crash of node1 is visible to the
	// analyzer, and the chain reaches the first typed error.
	d, err := flight.ReadDump(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if nd := d.Actor("node1"); nd == nil || len(nd.Events) == 0 {
		t.Error("dump lacks node1's crash event")
	}
	rep := flight.Analyze(d)
	if len(rep.Chain) == 0 {
		t.Error("no causal chain in the churn dump")
	}
}

// TestCommitCrashRecovers crashes node1 inside the commits that once left
// an epoch half stamped (4 030, 5 030, 5 035 and 6 030 µs), just before a
// fence round (5 026 µs), between commits (5 200 µs), and 31 and 40 µs
// after every round boundary, where the survivors used to end in different
// rounds. The fence is the whole commit, so every survivor recovers once,
// loses no write and ends in the shrunken world, and the dump at the first
// failure holds no split fence round. 16 040 µs is not a row: by then the
// workload is done with node1, and no rank observes the crash.
func TestCommitCrashRecovers(t *testing.T) {
	instants := []time.Duration{4030 * time.Microsecond, 5026 * time.Microsecond, 5030 * time.Microsecond,
		5035 * time.Microsecond, 5200 * time.Microsecond, 6030 * time.Microsecond, 16031 * time.Microsecond}
	for k := time.Duration(1); k <= 15; k++ {
		instants = append(instants, k*time.Millisecond+31*time.Microsecond, k*time.Millisecond+40*time.Microsecond)
	}
	for _, at := range instants {
		t.Run(at.String(), func(t *testing.T) {
			cfg := testConfig(fault.New(*faultSeed).CrashNode(1, at))
			rec := flight.New(512)
			cfg.Flight = rec
			var dump *flight.Dump
			rec.SetDumpSink(func(d *flight.Dump) { dump = d })
			reports, _ := RunWorkload(cfg, DefaultConfig(), DefaultWorkload())
			if dump == nil {
				t.Fatal("the crash produced no failure dump")
			}
			checkNoSplitFence(t, dump)
			checkRecovered(t, reports)
		})
	}
}

// checkNoSplitFence fails on every split fence round the dump holds.
func checkNoSplitFence(t *testing.T, dump *flight.Dump) {
	t.Helper()
	for _, an := range flight.Analyze(dump).Anomalies {
		if an.Check == "split-fence" {
			t.Errorf("dump at %q: %s", dump.Reason, an.Summary)
		}
	}
}
