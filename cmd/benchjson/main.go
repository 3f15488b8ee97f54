// Command benchjson is the virtual-time harness: it runs the DMA
// path-selection and collective algorithm-selection matrices, the rmem
// failover suite and the sharded-engine 512-node suite, and writes the four
// committed BENCH_*.json artifacts. Every column it writes is determined by
// the seed, so the files regenerate byte-identically and CI diffs them;
// wall-clock numbers are printed only (benchmark/ measures those). It exits
// non-zero when an rmem availability gate or an engine determinism gate
// fails. See docs/PERFORMANCE.md.
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

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
		os.Exit(1)
	}
	emit := func(file, table string, write func(path string) error) {
		fmt.Print(table)
		path := filepath.Join(*dir, file)
		if err := write(path); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	// Forced deposit engines vs the adaptive chooser per block size.
	dma := bench.RunDMAPathBench(bench.DMAPathBlockSizes())
	emit("BENCH_dma.json", bench.FormatDMAPath(dma), func(path string) error {
		return bench.WriteDMAJSON(path, dma)
	})

	// Forced algorithm families vs the adaptive chooser per collective,
	// payload and cluster size.
	coll := bench.RunCollBench(bench.CollNodeCounts())
	emit("BENCH_coll.json", bench.FormatColl(coll), func(path string) error {
		return bench.WriteCollJSON(path, coll)
	})

	// Crash-free baseline vs a primary crash mid-workload; the churn row
	// carries the availability gates.
	rmem, ok := bench.RunRmemBench(*rmemSeed)
	emit("BENCH_rmem.json", bench.FormatRmem(rmem), func(path string) error {
		return bench.WriteRmemJSON(path, rmem)
	})
	if !ok {
		fail("rmem availability gates failed")
	}

	// The 512-node torus ring allreduce and the full-stack MPI allreduce,
	// each on the sequential oracle vs the conservative-parallel engine; the
	// sharded rows carry the schedule-determinism gates.
	engine, ok := bench.RunEngineBench()
	emit("BENCH_engine.json", bench.FormatEngine(engine), func(path string) error {
		return bench.WriteEngineJSON(path, engine)
	})
	if !ok {
		fail("engine determinism gates failed")
	}
}
