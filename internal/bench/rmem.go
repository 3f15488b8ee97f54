package bench

// The replicated remote-memory failover benchmark behind BENCH_rmem.json:
// the rmem workload runs once crash-free and once with a primary-holding
// node crashed mid-run. The artifact gates the availability claims — no
// committed write lost, no client operation failing after the failover
// epoch, and a p99 sojourn time under churn (what the crash stalls: queueing
// behind detection and recovery included) below one expiry of the world's
// scaled watchdog — and reports the ungated recovery economics (failovers,
// service-time quantiles, operation failures during detection) alongside.

import (
	"fmt"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/rmem"
)

// RmemResult is one scenario row of the failover suite.
type RmemResult struct {
	Scenario string `json:"scenario"` // "baseline" or "churn"
	Nodes    int    `json:"nodes"`
	Seed     uint64 `json:"seed"`
	Rounds   int    `json:"rounds"`
	Ops      int64  `json:"ops_ok"`

	Failovers           int   `json:"failovers"`
	Committed           int64 `json:"committed"`
	LostWrites          int64 `json:"lost_writes"`
	LostShards          int   `json:"lost_shards"`
	OpFailures          int64 `json:"op_failures"`
	FailedAfterRecovery int64 `json:"failed_after_recovery"`

	GetP50NS     int64 `json:"get_p50_ns"`
	GetP99NS     int64 `json:"get_p99_ns"`
	PutP99NS     int64 `json:"put_p99_ns"`
	SojournP99NS int64 `json:"sojourn_p99_ns"`
	ElapsedNS    int64 `json:"elapsed_ns"`

	// Gates (churn row only): the availability claims this artifact pins.
	GateNoLostWrites      bool `json:"gate_no_lost_writes,omitempty"`
	GatePostFailoverClean bool `json:"gate_post_failover_clean,omitempty"`
	GateP99Bound          bool `json:"gate_p99_bound,omitempty"`
}

// RmemNodes, RmemCrashAt and RmemSeed (the fault-plan seed) pin the
// benchmark scenario.
const (
	RmemNodes   = 4
	RmemCrashAt = 5200 * time.Microsecond
	RmemSeed    = 42
)

func rmemConfig(plan *fault.Plan) mpi.Config {
	cfg := mpi.DefaultConfig(RmemNodes, 1)
	cfg.SCI.Fault = plan
	cfg.Protocol.CollTimeout = mpi.AutoTimeout
	cfg.Protocol.RendezvousTimeout = mpi.AutoTimeout
	return cfg
}

func rmemRow(scenario string, reports []rmem.RankReport, end time.Duration) RmemResult {
	wl := rmem.DefaultWorkload()
	r := RmemResult{Scenario: scenario, Nodes: RmemNodes, Seed: RmemSeed, Rounds: wl.Rounds, ElapsedNS: int64(end)}
	for _, rr := range reports {
		if rr.Died {
			continue
		}
		r.Ops += rr.GetOK + rr.PutOK
		r.Failovers += rr.Failovers
		r.Committed += int64(rr.Committed)
		r.LostWrites += rr.LostWrites
		r.LostShards += rr.LostShards
		r.OpFailures += rr.OpFailures
		r.FailedAfterRecovery += rr.FailedAfterRecovery
		if p := rr.GetNS.P50; p > r.GetP50NS {
			r.GetP50NS = p
		}
		if p := rr.GetNS.P99; p > r.GetP99NS {
			r.GetP99NS = p
		}
		if p := rr.PutNS.P99; p > r.PutP99NS {
			r.PutP99NS = p
		}
		if p := rr.SojournNS.P99; p > r.SojournP99NS {
			r.SojournP99NS = p
		}
	}
	return r
}

// rmemWatchdog is what mpi.AutoTimeout resolves to for the service's
// windows in the benchmark world: the scaled one-sided synchronisation
// watchdog, the longest a wait on a silent peer lasts before it is given up.
func rmemWatchdog() (d time.Duration) {
	mpi.Run(rmemConfig(nil), func(c *mpi.Comm) { d = c.World().ScaledSyncTimeout() })
	return d
}

// gateRmem evaluates the availability gates on the churn row and reports
// whether all hold. The stall gate bounds the churn sojourn p99 by the
// watchdog: survivors must learn of a crash from the liveness view and
// recover, not sit out a watchdog, so the operations queued behind the
// failover wait less than one expiry. (The get service time cannot carry
// this claim: it times successful attempts only and reads the same with and
// without a crash.)
func gateRmem(churn *RmemResult, watchdog time.Duration) bool {
	churn.GateNoLostWrites = churn.LostWrites == 0 && churn.LostShards == 0
	churn.GatePostFailoverClean = churn.FailedAfterRecovery == 0 && churn.Failovers > 0
	churn.GateP99Bound = churn.SojournP99NS > 0 && churn.SojournP99NS <= int64(watchdog)
	return churn.GateNoLostWrites && churn.GatePostFailoverClean && churn.GateP99Bound
}

// RunRmemBench executes the baseline and churn scenarios and evaluates the
// availability gates on the churn row. ok reports whether every gate holds.
func RunRmemBench() (rows []RmemResult, ok bool) {
	wl := rmem.DefaultWorkload()
	cfg := rmem.DefaultConfig()

	baseRep, baseEnd := rmem.RunWorkload(rmemConfig(fault.New(RmemSeed)), cfg, wl)
	base := rmemRow("baseline", baseRep, baseEnd)

	churnRep, churnEnd := rmem.RunWorkload(rmemConfig(fault.New(RmemSeed).CrashNode(1, RmemCrashAt)), cfg, wl)
	churn := rmemRow("churn", churnRep, churnEnd)

	ok = gateRmem(&churn, rmemWatchdog())
	return []RmemResult{base, churn}, ok
}

// FormatRmem renders the failover suite as an aligned text table.
func FormatRmem(results []RmemResult) string {
	out := "rmem (replicated remote-memory failover):\n"
	out += fmt.Sprintf("  %-9s %6s %9s %9s %5s %5s %11s %11s %11s  %s\n",
		"scenario", "ops", "committed", "failures", "fovr", "lost", "get_p99", "put_p99", "sojourn_p99", "gates")
	for _, r := range results {
		gates := "-"
		if r.Scenario == "churn" {
			gates = fmt.Sprintf("lost=%v clean=%v p99=%v", r.GateNoLostWrites, r.GatePostFailoverClean, r.GateP99Bound)
		}
		out += fmt.Sprintf("  %-9s %6d %9d %9d %5d %5d %11v %11v %11v  %s\n",
			r.Scenario, r.Ops, r.Committed, r.OpFailures, r.Failovers, r.LostWrites,
			time.Duration(r.GetP99NS), time.Duration(r.PutP99NS), time.Duration(r.SojournP99NS), gates)
	}
	return out
}
