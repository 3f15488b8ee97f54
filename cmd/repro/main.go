// Command repro regenerates the evaluation: every row of the table of
// experiments (internal/bench.Suites) — the paper's figures and tables, the
// extension experiments and the four artefact suites — or the rows -only
// names, printed as one report. The whole table takes a few seconds.
//
// Usage:
//
//	repro [-only fig7,tab2] [-csv] [-quick] [-min 64 -max 262144]
package main

import (
	"flag"
	"fmt"
	"os"

	"scimpich/internal/bench"
)

func main() {
	only := flag.String("only", "", "comma-separated `suites` to run (default: the whole table)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	var sweep bench.Sweep
	flag.BoolVar(&sweep.Quick, "quick", false, "coarser sweeps and smaller machines")
	flag.Int64Var(&sweep.Min, "min", 0, "smallest size of the size sweeps in bytes (default: each suite's own)")
	flag.Int64Var(&sweep.Max, "max", 0, "largest size of the size sweeps in bytes (default: each suite's own)")
	finish := bench.ObsFlags()
	flag.Parse()

	suites, err := bench.Select(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, s := range suites {
		if !*csv {
			fmt.Printf("==== %s — %s ====\n\n", s.Name, s.Reproduces)
		}
		rows, err := s.Run(sweep)
		s.Print(os.Stdout, rows, *csv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", s.Name, err)
			failed = true
		}
	}
	finish()
	if failed {
		os.Exit(1)
	}
}
