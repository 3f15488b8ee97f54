package rmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// TestPartiallyStampedEpochByCrashInstant crashes node1 at instants around
// the commits of rounds 5 to 7 and analyzes the dump taken at the first
// failure. Inside a commit window (4 030, 5 030 and 6 030 µs) the fence round
// completes, rank0 stamps shard 0 on itself and its accumulate to rank1
// fails: the analyzer names the partially stamped epoch. A crash before the
// fence completes (5 026 µs) or between commits (5 200 µs) leaves no such
// finding; both recover. At 5 035 µs the first failure is a later get, and
// shards 0 and 1 each carry the epoch on one replica only.
func TestPartiallyStampedEpochByCrashInstant(t *testing.T) {
	const class = "partially-stamped-epoch"
	for _, tc := range []struct {
		crashAt time.Duration
		want    []string // the summaries of the class, most severe first
	}{
		{4030 * time.Microsecond, []string{
			"epoch 4 is partially stamped on shard 0 after fence round 5 on window 0 completed: stamped on rank0, never on rank1 (node1 crashed at 4.03ms; rank0's accumulate to rank1 failed)",
		}},
		{5030 * time.Microsecond, []string{
			"epoch 5 is partially stamped on shard 0 after fence round 6 on window 0 completed: stamped on rank0, never on rank1 (node1 crashed at 5.03ms; rank0's accumulate to rank1 failed)",
		}},
		{6030 * time.Microsecond, []string{
			"epoch 6 is partially stamped on shard 0 after fence round 7 on window 0 completed: stamped on rank0, never on rank1 (node1 crashed at 6.03ms; rank0's accumulate to rank1 failed)",
		}},
		{5035 * time.Microsecond, []string{
			"epoch 5 is partially stamped on shard 0 after fence round 6 on window 0 completed: stamped on rank0, never on rank1 (node1 crashed at 5.035ms)",
			"epoch 5 is partially stamped on shard 1 after fence round 6 on window 0 completed: stamped on rank1, never on rank2 (node1 crashed at 5.035ms)",
		}},
		{5026 * time.Microsecond, nil},
		{5200 * time.Microsecond, nil},
	} {
		t.Run(tc.crashAt.String(), func(t *testing.T) {
			cfg := testConfig(fault.New(*faultSeed).CrashNode(1, tc.crashAt))
			rec := flight.New(512)
			cfg.Flight = rec
			var dump *flight.Dump
			rec.SetDumpSink(func(d *flight.Dump) { dump = d })
			RunWorkload(cfg, DefaultConfig(), DefaultWorkload())
			if dump == nil {
				t.Fatal("the crash produced no failure dump")
			}
			var got []string
			for _, an := range flight.Analyze(dump).Anomalies {
				if an.Check == class {
					got = append(got, an.Summary)
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("dump at %q:\n got %q\nwant %q", dump.Reason, got, tc.want)
			}
		})
	}
}
