// Command postmortem analyzes a flight-recorder dump (as written on the
// first typed failure by a world configured with a flight.Recorder, or
// forced with rmemserve -flight-out) and renders a causal post-mortem:
//
//   - the invariant report — unmatched or stalled rendezvous transfers,
//     fence-stall attribution (which rank held up the round, and whether an
//     injected crash is the root cause), shrink-agreement divergence, commit
//     epoch regressions, fence rounds a crash split and lost committed
//     writes — ranked by severity,
//   - the causal chain terminating at the failure, annotated with Lamport
//     clocks derived from the send/recv, rendezvous, fence and put edges,
//   - the tail of every actor's event timeline.
//
// Usage:
//
//	postmortem [-events N] dump.json
//
// Reading "-" analyzes standard input.
package main

import (
	"flag"
	"fmt"
	"os"

	"scimpich/internal/obs/flight"
)

func main() {
	tail := flag.Int("events", 12, "timeline events shown per actor (0 hides the timelines)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: postmortem [-events N] dump.json")
		os.Exit(2)
	}
	d, err := flight.ReadDumpFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "postmortem: %v\n", err)
		os.Exit(1)
	}
	rep := flight.Analyze(d)
	flight.WriteReport(os.Stdout, d, rep)
	fmt.Println()
	flight.WriteChain(os.Stdout, d, rep)
	if *tail > 0 {
		fmt.Println()
		flight.WriteTimelines(os.Stdout, d, *tail)
	}
}
