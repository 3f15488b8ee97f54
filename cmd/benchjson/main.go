// Command benchjson runs the hot-path microbenchmark suites (direct_pack_ff
// engine and PIO delivery pipeline), the virtual-time DMA path-selection
// and collective matrices, the rmem failover suite and the sharded-engine
// 512-node suite, and writes the BENCH_*.json regression-gate artifacts
// archived by CI. See docs/PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"scimpich/internal/bench"
)

func main() {
	dir := flag.String("dir", ".", "directory the BENCH_*.json artifacts are written to")
	rmemSeed := flag.Uint64("rmem-seed", 42, "fault-plan seed of the rmem failover suite")
	flag.Parse()

	suites := []struct {
		name  string
		file  string
		suite []bench.NamedBench
	}{
		{"pack", "BENCH_pack.json", bench.PackBenchmarks()},
		{"pio", "BENCH_pio.json", bench.PIOBenchmarks()},
	}
	for _, s := range suites {
		results := bench.RunHotpathSuite(s.suite)
		fmt.Print(bench.FormatHotpath(s.name, results))
		path := filepath.Join(*dir, s.file)
		if err := bench.WriteBenchJSON(path, s.name, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	// The DMA path-selection matrix runs in virtual time (forced deposit
	// engines vs the adaptive chooser per block size) and has its own
	// result schema.
	dma := bench.RunDMAPathBench(bench.DMAPathBlockSizes())
	fmt.Print(bench.FormatDMAPath(dma))
	path := filepath.Join(*dir, "BENCH_dma.json")
	if err := bench.WriteDMAJSON(path, dma); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)

	// The collective algorithm-selection matrix (forced algorithm families
	// vs the adaptive chooser per collective, payload and cluster size).
	coll := bench.RunCollBench(bench.CollNodeCounts())
	fmt.Print(bench.FormatColl(coll))
	path = filepath.Join(*dir, "BENCH_coll.json")
	if err := bench.WriteCollJSON(path, coll); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)

	// The replicated remote-memory failover suite (crash-free baseline vs
	// a primary crash mid-workload); its rows carry the availability gates.
	rmemRows, ok := bench.RunRmemBench(*rmemSeed)
	fmt.Print(bench.FormatRmem(rmemRows))
	path = filepath.Join(*dir, "BENCH_rmem.json")
	if err := bench.WriteRmemJSON(path, rmemRows); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
	if !ok {
		fmt.Fprintln(os.Stderr, "benchjson: rmem availability gates failed")
		os.Exit(1)
	}

	// The sharded-engine suite: the 512-node torus ring allreduce plus the
	// full-stack MPI allreduce, each on the sequential oracle vs the
	// conservative-parallel engine. Its rows carry the schedule-determinism
	// gates (both workloads); speedup and ncpu are reported, not gated.
	engRows, engOK := bench.RunEngineBench()
	fmt.Print(bench.FormatEngine(engRows))
	path = filepath.Join(*dir, "BENCH_engine.json")
	if err := bench.WriteEngineJSON(path, engRows); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
	if !engOK {
		fmt.Fprintln(os.Stderr, "benchjson: engine determinism gates failed")
		os.Exit(1)
	}
}
