// Command benchjson is the virtual-time harness: it runs the rows of the
// table of experiments (internal/bench.Suites) that name a committed file —
// the paper's figures and tables, the DMA path-selection and collective
// algorithm-selection matrices, the rmem failover suite, the sharded-engine
// 512-node suite and the gated design-choice ablations — and writes the six
// BENCH_*.json artifacts. Every column it writes is determined by the seed,
// so the files regenerate byte-identically and CI diffs them; wall-clock
// numbers are printed only (benchmark/ measures those). It exits non-zero
// when a row's gate fails: an rmem availability gate, an engine determinism
// gate or an ablation claim. See docs/PERFORMANCE.md.
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
	flag.Parse()

	failed := false
	for _, file := range bench.ArtifactFiles() {
		data, gates := bench.RunArtifact(file, bench.Sweep{}, os.Stdout)
		if data == nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", file, gates)
			os.Exit(1)
		}
		path := filepath.Join(*dir, file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
		if gates != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", gates)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
