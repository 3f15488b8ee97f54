// Command benchmark is the repository's two-clock end-to-end benchmark: seven
// workloads driven through the scimpich facade, every repetition in its own
// freshly spawned worker process, end-to-end metrics with tracing off and a
// separate traced repetition for the per-layer numbers. See README.md.
//
//	go run . -seed 1 -out out                       all workloads, writes out/result.json
//	go run . -workload pingpong_short -seconds 10   one workload (what /BENCHMARK.json's command runs)
//	go run . compare A.json B.json                  PASS / WORSE / UNRESOLVED per workload x metric
//	go run . spec                                   the contract, in the layout of /BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type workload struct {
	name string
	why  string
	run  func(e *env)
}

var workloads = []workload{
	{"pingpong_short", "per-message cost of the mpi short protocol, sim event and proc-switch scheduling and a small sci PIO write; bypasses flow, pack, collectives and world construction", runPingpongShort},
	{"noncontig_vector", "Figure 7: pack and sci block writes do the host work and the rendezvous handshake the virtual time; the contiguous rows are the same bytes with pack bypassed", runNoncontigVector},
	{"osc_sparse", "Figure 9: the same osc and sci layers for writes beside reads and direct beside emulated access, so a gain for one use that costs another shows", runOSCSparse},
	{"allreduce8", "collective chooser and p2p protocols under 8-node ring contention: the full-stack workload where flow solves shared components and real reduction arithmetic runs", runAllreduce8},
	{"world_churn", "world construction dominates every short test and bench and is where goroutine and heap retention show; the steady-state message path does almost nothing here", runWorldChurn},
	{"rmem_failover", "the only workload that drives fault plans, retries, watchdogs, shrink and failover; open loop, so its sojourn tail shows the operations a crash stalls", runRmemFailover},
	{"torus216_ring", "flow does nearly all the work (hundreds of concurrent single-flow components); bypasses the mpi protocol stack, pack and osc", runTorus216Ring},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spec":
			os.Stdout.Write(benchmarkJSON())
			return
		}
	}
	var (
		name    = flag.String("workload", "", "run one workload and end with the one-line JSON result; empty runs all seven")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "measuring time of one run: operation counts scale with it")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs the traced repetition and reports the per-layer metrics")
		out     = flag.String("out", "benchmark/out", "directory for result.json, traces and profiles")
		worker  = flag.Bool("worker", false, "internal: run one repetition in this process and print its result")
		claims  = flag.Bool("claims", false, "internal (worker): also run the untimed model-claim phase")
		scale   = flag.Float64("scale", 1, "internal (worker): multiplier of every operation count")
	)
	flag.Parse()
	switch {
	case *worker:
		os.Exit(workerMain(*name, *seed, *scale, *trace == 1, *claims, *out))
	case *name != "":
		os.Exit(driverMain(*name, *seed, *seconds/runSeconds, *trace == 1, *out))
	default:
		os.Exit(allMain(*seed, *seconds/runSeconds, *out))
	}
}

// workerMain is one repetition: run the workload, then (traced) the layer
// replays, and print the result as one JSON object.
func workerMain(name string, seed uint64, scale float64, traced, claims bool, out string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res, tr := runRepetition(w, seed, scale, traced, claims, false)
	if tr != nil {
		if err := tr.write(out, name, seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
