package rmem

import (
	"bytes"
	"flag"
	"fmt"
	"slices"
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

// TestFailoverClaimsCrashOutsideFence is the tail gate of a crash that
// lands outside every fence round, where a survivor whose operations avoid
// the dead node once sat a sync watchdog out in its next commit fence: that
// fence fails at once on the dead peer, and any one-sided call fails at
// once after another survivor entered the agreement, so the survivors
// recover within the round, not one sync watchdog later. It replays the benchmark
// harness's worst input (seed 531733886564779828, crash at 5 068.13 µs)
// and the crash at every whole millisecond of the run on -fault.seed,
// instants at which the fence once sat its watchdog out (a 15–16 ms
// sojourn). Every survivor's largest sojourn must stay within two rounds
// of arrivals (2 ms), and the run must end within 1 ms of its crash-free
// twin.
func TestFailoverClaimsCrashOutsideFence(t *testing.T) {
	type input struct {
		seed uint64
		at   time.Duration
	}
	inputs := []input{{531733886564779828, 5068130 * time.Nanosecond}}
	for k := time.Duration(1); k <= 16; k++ {
		inputs = append(inputs, input{*faultSeed, k * time.Millisecond})
	}
	for _, in := range inputs {
		t.Run(fmt.Sprintf("seed%d/%v", in.seed, in.at), func(t *testing.T) {
			wl := DefaultWorkload()
			wl.Seed = int64(in.seed)
			bound := 2 * time.Duration(wl.OpsPerRound) * wl.ArrivalGap
			_, free := RunWorkload(testConfig(fault.New(in.seed)), DefaultConfig(), wl)
			reports, end := RunWorkload(testConfig(fault.New(in.seed).CrashNode(1, in.at)), DefaultConfig(), wl)
			checkRecovered(t, reports)
			for _, me := range []int{0, 2, 3} {
				if worst := time.Duration(reports[me].SojournNS.Max); worst > bound {
					t.Errorf("survivor %d: largest sojourn %v, want at most %v", me, worst, bound)
				}
			}
			if end > free+time.Millisecond {
				t.Errorf("run ended at %v, want within 1ms of the crash-free %v", end, free)
			}
		})
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

// TestSecondCrashDuringWindowCreation: a second node crashing while the
// survivors of a first crash create their new window ends the recovery in
// a returned error, not a panic. On the benchmark's churn world (node 1
// crashes at 5.2 ms), node 2 crashes at the three instants that land in
// window creation's barriers (two in its first, one in its second). The
// workload returns, and each of ranks 0 and 3 completed a recovery or
// reports why its recovery failed; one that recovered reports no error and
// its membership. With two of four nodes gone, shards may lose both
// replicas, so lost writes are not checked.
func TestSecondCrashDuringWindowCreation(t *testing.T) {
	for _, t2 := range []time.Duration{5555 * time.Microsecond, 5560 * time.Microsecond, 5565 * time.Microsecond} {
		t.Run(t2.String(), func(t *testing.T) {
			plan := fault.New(42).CrashNode(1, crashAt).CrashNode(2, t2)
			reports, _ := RunWorkload(testConfig(plan), DefaultConfig(), DefaultWorkload())
			for _, me := range []int{0, 3} {
				r := reports[me]
				if r.Died || (r.Failovers == 0 && r.RecoverErr == "") {
					t.Errorf("survivor %d: died=%v failovers=%d recoverErr=%q, want a recovery or its error",
						me, r.Died, r.Failovers, r.RecoverErr)
				}
				if r.Failovers >= 1 && (r.RecoverErr != "" || len(r.Survivors) == 0) {
					t.Errorf("survivor %d recovered %d times but reports recoverErr=%q survivors=%v",
						me, r.Failovers, r.RecoverErr, r.Survivors)
				}
				t.Logf("survivor %d: failovers=%d recoverErr=%q survivors=%v", me, r.Failovers, r.RecoverErr, r.Survivors)
			}
		})
	}
}

// TestFailoverClaimsMidRound is the tail gate of a crash anywhere in the
// benchmark harness's crash window (node 1 at 5 050–5 350 µs, in steps of
// 25 µs) on -fault.seed. A survivor whose operations avoid the dead node
// learns of the crash from the first survivor's arrival in the agreement,
// which revokes the communicator at the survivor's next one-sided call, so
// the agreement does not wait for it to touch the dead node, and each
// shard is pushed once toward each new replica that is not its holder
// (rereplicate), so no survivor copies a shard onto itself. Every
// survivor's largest sojourn must stay within five arrival gaps (200 µs):
// one gap for the last survivor's next call, the rest for the recovery.
func TestFailoverClaimsMidRound(t *testing.T) {
	wl := DefaultWorkload()
	wl.Seed = int64(*faultSeed)
	bound := 5 * wl.ArrivalGap
	for at := 5050 * time.Microsecond; at <= 5350*time.Microsecond; at += 25 * time.Microsecond {
		t.Run(at.String(), func(t *testing.T) {
			reports, _ := RunWorkload(testConfig(fault.New(*faultSeed).CrashNode(1, at)), DefaultConfig(), wl)
			checkRecovered(t, reports)
			for _, me := range []int{0, 2, 3} {
				if worst := time.Duration(reports[me].SojournNS.Max); worst > bound {
					t.Errorf("survivor %d: largest sojourn %v, want at most %v", me, worst, bound)
				}
			}
		})
	}
}

// TestRereplicatePushesEachShardOnce pins the push plan of a failover on
// 4×1, crashing each node in turn once every rank has committed a write to
// each key it owns. Each shard's holder, a surviving old replica that stays
// one of the shard's new replicas when there is one, pushes the shard to
// each new replica but itself: 10 pushes of one shard region over the
// three survivors, none of them to the pushing rank, and at most 4 on one
// rank. Nothing is staged at the crash, so every put of the rebuilt window
// until Recover returns is a push. After Recover, every shard's primary and
// backup regions are byte-equal and hold the committed writes.
func TestRereplicatePushesEachShardOnce(t *testing.T) {
	const crash, call = 2 * time.Millisecond, 3 * time.Millisecond
	cfg := DefaultConfig()
	shardBytes := cfg.shardBytes()
	for dead := range 4 {
		t.Run(fmt.Sprintf("node%d", dead), func(t *testing.T) {
			svcs := make([]*Service, 4)
			mpi.Run(testConfig(fault.New(*faultSeed).CrashNode(dead, crash)), func(c *mpi.Comm) {
				me := c.WorldRank()
				svc, err := New(c, cfg)
				if err != nil {
					t.Errorf("rank %d: New: %v", me, err)
					return
				}
				val := make([]byte, cfg.ValBytes)
				for key := int64(me); key < cfg.Keys(); key += 4 {
					for i := range val {
						val[i] = byte(key) ^ byte(i)
					}
					if err := svc.Put(key, val); err != nil {
						t.Errorf("rank %d: Put(%d): %v", me, key, err)
						return
					}
				}
				if err := svc.Commit(); err != nil {
					t.Errorf("rank %d: Commit: %v", me, err)
					return
				}
				p := c.Proc()
				if p.Now() >= crash {
					t.Errorf("rank %d: writes committed at %v, after the crash at %v", me, p.Now(), crash)
					return
				}
				p.Sleep(call - p.Now())
				if err := svc.Commit(); err == nil {
					t.Errorf("rank %d: the commit after the crash succeeded", me)
					return
				}
				if err := svc.Recover(); err != nil {
					if me != dead || !IsRevoked(err) {
						t.Errorf("rank %d: Recover: %v", me, err)
					}
					return
				}
				svcs[me] = svc
			})
			total := 0
			for me, svc := range svcs {
				if me == dead {
					continue
				}
				if svc == nil {
					t.Fatalf("survivor %d did not recover", me)
				}
				st := svc.win.Snapshot()
				local := st.Puts - st.DirectPuts - st.EmulatedPuts
				if local != 0 {
					t.Errorf("survivor %d pushed %d shards onto itself", me, local)
				}
				if st.Puts > 4 {
					t.Errorf("survivor %d pushed %d shards, want at most 4", me, st.Puts)
				}
				if st.BytesPut != st.Puts*shardBytes {
					t.Errorf("survivor %d put %d bytes in %d puts, want whole shards of %d", me, st.BytesPut, st.Puts, shardBytes)
				}
				total += int(st.Puts)
			}
			if total != 10 {
				t.Errorf("%d pushes, want 10", total)
			}
			// Every survivor holds the same membership; read placement from one.
			ref := svcs[(dead+1)%4]
			for sh := range shards {
				off := int64(sh) * shardBytes
				region := func(g int) []byte {
					return svcs[ref.ranks[g]].seg.Bytes()[off : off+shardBytes]
				}
				p, b := region(ref.primary(sh)), region(ref.backup(sh))
				if !bytes.Equal(p, b) {
					t.Errorf("shard %d: primary %d and backup %d differ", sh, ref.ranks[ref.primary(sh)], ref.ranks[ref.backup(sh)])
				}
				if !slices.ContainsFunc(p, func(x byte) bool { return x != 0 }) {
					t.Errorf("shard %d: primary %d holds no committed write", sh, ref.ranks[ref.primary(sh)])
				}
			}
		})
	}
}
