package rmem

import (
	"flag"
	"testing"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
)

var faultSeed = flag.Uint64("fault.seed", 42, "seed for the fault-injection plans of the failover tests")

// testConfig is a 4-node world with every watchdog on the scaled automatic
// bound and the given fault plan attached.
func testConfig(plan *fault.Plan) mpi.Config {
	cfg := mpi.DefaultConfig(4, 1)
	cfg.SCI.Fault = plan
	cfg.Protocol.CollTimeout = mpi.AutoTimeout
	cfg.Protocol.RendezvousTimeout = mpi.AutoTimeout
	return cfg
}

// crashAt is the fault-plan instant of the failover scenarios: mid-workload,
// several commit rounds in.
const crashAt = 5200 * time.Microsecond

func churnPlan(seed uint64) *fault.Plan {
	return fault.New(seed).CrashNode(1, crashAt)
}

func TestPutGetCommitNoFaults(t *testing.T) {
	wl := DefaultWorkload()
	wl.Rounds = 6
	reports, _ := RunWorkload(testConfig(fault.New(*faultSeed)), DefaultConfig(), wl)
	for _, r := range reports {
		if r.Died || r.RecoverErr != "" || r.VerifyErr != "" {
			t.Fatalf("rank %d: died=%v recoverErr=%q verifyErr=%q", r.Rank, r.Died, r.RecoverErr, r.VerifyErr)
		}
		if r.OpFailures != 0 || r.LostWrites != 0 || r.Failovers != 0 {
			t.Errorf("rank %d: failures=%d lost=%d failovers=%d on a crash-free run",
				r.Rank, r.OpFailures, r.LostWrites, r.Failovers)
		}
		if r.Committed == 0 || r.PutOK == 0 || r.GetOK == 0 {
			t.Errorf("rank %d: empty run: committed=%d puts=%d gets=%d", r.Rank, r.Committed, r.PutOK, r.GetOK)
		}
	}
}

// TestFailoverClaims is the headline acceptance test: a primary-holding node
// crashes mid-workload, the survivors agree on the shrunken world, promote
// and re-replicate, and the service keeps serving. Gates: no committed write
// is lost, no shard loses both replicas, no client operation fails after
// the failover completed, and the p99 sojourn time under churn — what the
// crash stalls, queueing behind detection and recovery included — stays
// below one expiry of the scaled watchdog mpi.AutoTimeout resolves to for
// the service's windows: survivors learn of the crash from the liveness
// view, they do not sit a watchdog out. The crash lands between commits, so
// the dump at the first failure holds no split fence round.
func TestFailoverClaims(t *testing.T) {
	wl := DefaultWorkload()
	base, _ := RunWorkload(testConfig(fault.New(*faultSeed)), DefaultConfig(), wl)
	churnCfg, rec := flightConfig(t, *faultSeed)
	var dump *flight.Dump
	rec.SetDumpSink(func(d *flight.Dump) { dump = d })
	churn, _ := RunWorkload(churnCfg, DefaultConfig(), wl)
	if dump == nil {
		t.Fatal("the crash produced no failure dump")
	}
	checkNoSplitFence(t, dump)

	var watchdog time.Duration
	mpi.Run(testConfig(nil), func(c *mpi.Comm) { watchdog = c.World().ScaledSyncTimeout() })

	for _, r := range base {
		if r.OpFailures != 0 || r.Died {
			t.Fatalf("baseline rank %d saw failures", r.Rank)
		}
	}
	checkRecovered(t, churn)
	for _, me := range []int{0, 2, 3} {
		r := churn[me]
		if r.LostShards != 0 {
			t.Errorf("survivor %d: %d shards lost both replicas", me, r.LostShards)
		}
		if r.FailedAfterRecovery != 0 {
			t.Errorf("survivor %d: %d operations failed after the failover epoch", me, r.FailedAfterRecovery)
		}
		if r.OpFailures == 0 {
			t.Errorf("survivor %d observed no failures at all — crash not exercised", me)
		}
		if p := time.Duration(r.SojournNS.P99); p <= 0 || p > watchdog {
			t.Errorf("survivor %d: sojourn p99 %v, want within the %v watchdog", me, p, watchdog)
		}
	}
}

// checkRecovered fails unless the crashed rank 1 observed its own
// revocation and every survivor recovered once, lost no committed write and
// ended in the membership [0 2 3].
func checkRecovered(t *testing.T, reports []RankReport) {
	t.Helper()
	if !reports[1].Died {
		t.Fatalf("crashed rank 1 did not observe its own revocation: %+v", reports[1])
	}
	for _, me := range []int{0, 2, 3} {
		r := reports[me]
		if r.Died || r.RecoverErr != "" || r.VerifyErr != "" {
			t.Fatalf("survivor %d: died=%v recoverErr=%q verifyErr=%q", me, r.Died, r.RecoverErr, r.VerifyErr)
		}
		if r.Failovers != 1 {
			t.Errorf("survivor %d: %d failovers, want 1", me, r.Failovers)
		}
		if r.LostWrites != 0 {
			t.Errorf("survivor %d: %d committed writes lost", me, r.LostWrites)
		}
		if len(r.Survivors) != 3 || r.Survivors[0] != 0 || r.Survivors[1] != 2 || r.Survivors[2] != 3 {
			t.Errorf("survivor %d: final membership %v, want [0 2 3]", me, r.Survivors)
		}
	}
}

// TestFailoverDeterministicPerSeed replays the identical churn scenario
// twice: the virtual end time and every per-rank outcome must match bit for
// bit (the recovery protocol introduces no hidden nondeterminism).
func TestFailoverDeterministicPerSeed(t *testing.T) {
	run := func() ([]RankReport, time.Duration) {
		wl := DefaultWorkload()
		cfg, _ := flightConfig(t, *faultSeed)
		return RunWorkload(cfg, DefaultConfig(), wl)
	}
	rep1, end1 := run()
	rep2, end2 := run()
	if end1 != end2 {
		t.Fatalf("non-deterministic failover: end times %v vs %v", end1, end2)
	}
	for me := range rep1 {
		a, b := rep1[me], rep2[me]
		if a.Died != b.Died || a.Failovers != b.Failovers || a.Committed != b.Committed ||
			a.GetOK != b.GetOK || a.PutOK != b.PutOK || a.OpFailures != b.OpFailures ||
			a.LostWrites != b.LostWrites {
			t.Errorf("rank %d: runs diverged:\n  %+v\n  %+v", me, a, b)
		}
	}
}

// TestShardLayout pins the key-to-slot mapping: the key space exactly fills
// the slots, so no two keys alias.
func TestShardLayout(t *testing.T) {
	cfg := DefaultConfig()
	s := &Service{cfg: cfg}
	seen := make(map[int64]int64)
	for key := int64(0); key < cfg.Keys(); key++ {
		off := s.slotOff(key)
		if prev, dup := seen[off]; dup {
			t.Fatalf("keys %d and %d alias slot offset %d", prev, key, off)
		}
		seen[off] = key
		if off < 0 || off+cfg.slotBytes() > cfg.winBytes() {
			t.Fatalf("key %d: slot [%d, %d) outside window of %d bytes", key, off, off+cfg.slotBytes(), cfg.winBytes())
		}
	}
}
