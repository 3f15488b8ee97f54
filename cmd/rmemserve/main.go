// Command rmemserve drives the replicated remote-memory service with an
// open-loop simulated client workload (Zipfian keys, fixed arrival grid)
// and, optionally, a node crash mid-run. It prints the per-rank outcome —
// operations, committed ledger sizes, failovers, latency quantiles. The
// gated baseline/churn suite behind BENCH_rmem.json is cmd/benchjson's. See
// docs/ELASTIC.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
	"scimpich/internal/rmem"
)

func main() {
	nodes := flag.Int("nodes", 4, "cluster nodes (1 rank per node)")
	seed := flag.Uint64("seed", 42, "fault-plan and workload seed")
	crashNode := flag.Int("crash-node", 1, "node to crash (-1 for a crash-free run)")
	crashAt := flag.Duration("crash-at", 5200*time.Microsecond, "virtual crash instant")
	rounds := flag.Int("rounds", 16, "commit rounds")
	ops := flag.Int("ops", 25, "client operations per round and rank")
	readFrac := flag.Float64("read-frac", 0.7, "fraction of operations that are gets")
	gap := flag.Duration("gap", 40*time.Microsecond, "open-loop inter-arrival time")
	flightOut := flag.String("flight-out", "", "write the flight-recorder dump here (on first failure, or at end of run)")
	flag.Parse()

	cfg := mpi.DefaultConfig(*nodes, 1)
	cfg.Protocol.CollTimeout = mpi.AutoTimeout
	cfg.Protocol.RendezvousTimeout = mpi.AutoTimeout
	plan := fault.New(*seed)
	if *crashNode >= 0 {
		plan = plan.CrashNode(*crashNode, *crashAt)
	}
	cfg.SCI.Fault = plan
	var rec *flight.Recorder
	if *flightOut != "" {
		rec = flight.New(512)
		rec.SetDumpPath(*flightOut)
		cfg.Flight = rec
	}

	wl := rmem.DefaultWorkload()
	wl.Rounds, wl.OpsPerRound = *rounds, *ops
	wl.ReadFrac, wl.ArrivalGap = *readFrac, *gap
	wl.Seed = int64(*seed)

	reports, end := rmem.RunWorkload(cfg, rmem.DefaultConfig(), wl)
	fmt.Printf("rmemserve: %d nodes, %d rounds x %d ops, virtual end %v\n", *nodes, *rounds, *ops, end)
	fmt.Printf("  %-4s %-5s %6s %6s %9s %5s %5s %5s %11s %11s %11s\n",
		"rank", "state", "gets", "puts", "committed", "fail", "fovr", "lost", "get_p99", "put_p99", "sojourn_p99")
	for _, r := range reports {
		state := "ok"
		switch {
		case r.Died:
			state = "died"
		case r.RecoverErr != "":
			state = "error"
		}
		fmt.Printf("  %-4d %-5s %6d %6d %9d %5d %5d %5d %11v %11v %11v\n",
			r.Rank, state, r.GetOK, r.PutOK, r.Committed, r.OpFailures, r.Failovers, r.LostWrites,
			time.Duration(r.GetNS.P99), time.Duration(r.PutNS.P99), time.Duration(r.SojournNS.P99))
		if r.RecoverErr != "" {
			fmt.Printf("       recover error: %s\n", r.RecoverErr)
		}
		if r.VerifyErr != "" {
			fmt.Printf("       verify error: %s\n", r.VerifyErr)
		}
	}

	if rec != nil {
		if !rec.Dumped() {
			rec.ForceDump("end of run")
		}
		if err := rec.DumpErr(); err != nil {
			fmt.Fprintf(os.Stderr, "rmemserve: writing flight dump: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote flight dump %s (%s) — analyze with: go run ./cmd/postmortem %s\n",
			*flightOut, rec.Reason(), *flightOut)
	}
}
